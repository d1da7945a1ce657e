"""Incremental backscatter demodulation of a capture that arrives in pieces.

:meth:`BackscatterDemodulator.demodulate` already walks a capture one
PSS-delimited half-frame at a time, so on a memory-mapped ``complex128``
capture its working set is one half-frame whatever the capture length.  It still
needs the whole capture to exist up front.  :class:`StreamingDemodulator`
is the receiver for samples that arrive as they are captured:
:meth:`~StreamingDemodulator.push` hands over the next samples (any
ragged chunk lengths, including boundaries landing mid-packet), buffered
samples are demodulated as soon as a full half-frame is available and
the buffer is trimmed behind the grid; :meth:`~StreamingDemodulator.finish`
flushes the tail and returns the result.

State carried across chunks (:class:`StreamCarry`): the position of the
next half-frame boundary on the PSS-derived grid (which is the receiver's
sync state — each boundary is a re-acquisition point), plus the most
recent packet gain and cascade sounding as warm-start diagnostics.  The
trailing partial half-frame at end-of-capture goes through the
demodulator core's truncated-tail handling and comes out as erasure
windows, never a crash or a silent drop.

Every half-frame goes through the public per-half-frame core,
:meth:`BackscatterDemodulator.demodulate_half_frame`, as a one-row stack
of the chunk-local buffer — the same core the whole-capture call runs.
Every emitted window is therefore bit-identical to the whole-capture call
on the same samples: the chunk-local buffer holds the same samples as the
capture, a half-frame is only demodulated short where it runs past the
end of the capture, and all indices are shifted back to absolute capture
coordinates through the sink's ``base``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bsrx.demodulator import BackscatterDemodulator, DemodSink
from repro.obs import metrics as obs_metrics


@dataclass
class StreamCarry:
    """Receiver state carried across chunk boundaries."""

    #: Next half-frame boundary on the PSS-derived grid (absolute sample
    #: index) — the sync state: where demodulation resumes in the next
    #: chunk.
    next_half_frame_start: int = 0
    #: Half-frames fully demodulated so far.
    half_frames_done: int = 0
    #: Complex path gain of the most recent non-erased packet (the Eq. 5/6
    #: phase offset); a warm-start diagnostic — each half-frame re-sounds
    #: the channel on its own PSS/SSS reflection.
    last_gain: complex = 0j
    #: Cascade frequency response from the most recent sounding, if any.
    last_cascade: np.ndarray | None = field(default=None, repr=False)


class StreamingDemodulator:
    """Demodulate a capture pushed chunk by chunk, in bounded memory."""

    def __init__(
        self,
        params,
        search_slack=None,
        erasure_threshold=None,
        snr_gate_db=None,
        first_half_frame_start=0,
    ):
        self.demodulator = BackscatterDemodulator(
            params,
            search_slack=search_slack,
            erasure_threshold=erasure_threshold,
            snr_gate_db=snr_gate_db,
        )
        self.params = self.demodulator.params
        #: Samples per half-frame (also the demodulation span of one
        #: half-frame — slot 9's last useful symbol ends exactly on the
        #: next boundary).
        self.half_frame_samples = self.params.samples_per_frame // 2
        self.carry = StreamCarry(
            next_half_frame_start=int(first_half_frame_start)
        )
        self._sink = DemodSink()
        self._buffer_shifted = np.zeros(0, dtype=complex)
        self._buffer_reference = np.zeros(0, dtype=complex)
        #: Absolute capture index of ``_buffer_shifted[0]``.  The
        #: incremental API assumes pushes start at sample 0; samples
        #: before ``first_half_frame_start`` are buffered but never
        #: demodulated (the grid starts there).
        self._buffer_base = 0
        self._finished = False

    @property
    def buffered_samples(self):
        return len(self._buffer_shifted)

    def push(self, shifted_chunk, ambient_reference_chunk):
        """Feed the next samples of both streams (any length, even 0).

        Full half-frames are demodulated as soon as they are buffered;
        the internal buffer keeps only the unfinished tail, so feeding
        bounded-size chunks bounds total memory.
        """
        if self._finished:
            raise RuntimeError("stream already finished")
        shifted_chunk = np.asarray(shifted_chunk, dtype=complex)
        reference_chunk = np.asarray(ambient_reference_chunk, dtype=complex)
        if shifted_chunk.shape != reference_chunk.shape:
            raise ValueError("capture and reference chunks must be sample-aligned")
        self._buffer_shifted = np.concatenate([self._buffer_shifted, shifted_chunk])
        self._buffer_reference = np.concatenate(
            [self._buffer_reference, reference_chunk]
        )
        self._drain()

    def _drain(self):
        """Demodulate every fully buffered half-frame and trim behind it."""
        demod = self.demodulator
        stride = self.half_frame_samples
        span_needed = demod.half_frame_span
        limit = len(self._buffer_shifted)
        while True:
            local = self.carry.next_half_frame_start - self._buffer_base
            if local < 0 or local + span_needed > limit:
                break
            self._sink.base = self._buffer_base
            self._demodulate(self._buffer_shifted, self._buffer_reference, local)
            self.carry.next_half_frame_start += stride
            self.carry.half_frames_done += 1
        # Trim everything before the next boundary: it can never be
        # touched again (each half-frame's span ends on the next one).
        local = self.carry.next_half_frame_start - self._buffer_base
        if local > 0:
            drop = min(local, len(self._buffer_shifted))
            self._buffer_shifted = self._buffer_shifted[drop:]
            self._buffer_reference = self._buffer_reference[drop:]
            self._buffer_base += drop

    def _demodulate(self, shifted, reference, half_start):
        """One half-frame of a chunk-local view, through the shared core."""
        cascade = self.demodulator.demodulate_half_frame(
            shifted[None], reference[None], half_start, [self._sink]
        )
        if cascade is not None:
            self.carry.last_cascade = cascade[0]
        for packet in reversed(self._sink.packets):
            if packet.model in ("post-eq", "predistort"):
                self.carry.last_gain = packet.gain
                break

    def finish(self):
        """Flush the trailing partial half-frame and return the result.

        The leftover tail (shorter than a full half-frame — the
        not-a-whole-number-of-half-frames case) runs through the core's
        truncated-tail handling: packets that still fit demodulate
        normally, the rest emit erasure windows.
        """
        if self._finished:
            raise RuntimeError("stream already finished")
        self._finished = True
        limit = len(self._buffer_shifted)
        local = self.carry.next_half_frame_start - self._buffer_base
        if 0 <= local < limit:
            self._sink.base = self._buffer_base
            self._demodulate(self._buffer_shifted, self._buffer_reference, local)
        self._buffer_shifted = np.zeros(0, dtype=complex)
        self._buffer_reference = np.zeros(0, dtype=complex)
        obs_metrics.counter_inc(
            "bsrx.stream_half_frames", self.carry.half_frames_done
        )
        return self._sink.result()
