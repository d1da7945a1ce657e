"""Parallel chip demodulation of the hybrid LTE signal (paper §3.3.3).

For every packet the demodulator

1. locates the preamble (modulation offset, Eq. 7) and estimates the
   backscatter channel — the general, frequency-selective form of the
   paper's phase offset phi (Eq. 5/6, challenge C3);
2. derotates/equalises the per-unit products;
3. slices chips by the sign of the matched-filter output.

Multipath sits on *both* hops of the cascade (eNodeB->tag and tag->UE),
and chip multiplication does not commute with filtering, so one linear
equaliser cannot fix both.  Physically the tag is near one endpoint
(paper Fig. 19: "within 15 feet of either eNodeB or UE"), which makes one
hop near-flat; the receiver therefore runs two hypotheses per packet and
keeps whichever reproduces the known preamble better:

* **post-EQ** — reference is the ambient waveform ``x``; the preamble
  sounds the (out-hop) channel and data symbols are equalised by it.
  Exact when the eNodeB->tag hop is flat.
* **pre-distorted reference** — the cascade response is estimated from the
  tag's *unmodulated* reflection of the PSS/SSS symbols (the tag never
  modulates those, so they arrive as a clean sounding every 5 ms); the
  reference becomes ``h_cascade * x`` and decisions are straight matched
  filtering.  Exact when the tag->UE hop is flat.

The reconstruction reference ``x_n`` (the ambient LTE samples) comes from
the UE's normal LTE decode of the direct path: the UE re-encodes the
transport blocks it just decoded and re-synthesises the time-domain frame.
The end-to-end system (:mod:`repro.core.system`) wires that in.

One per-half-frame core,
:meth:`BackscatterDemodulator.demodulate_half_frame`, does the work for a
``(n_rows, n_samples)`` stack of captures on one half-frame grid.  It
stacks every packet preamble of every row on the batch axis for the
preamble search and both hypotheses, then every data symbol for the
equalise/match step, so the FFT and convolution work runs as a few
batched transforms per half-frame whatever the number of rows.  Each row
of those transforms depends on its own inputs alone, so results never
depend on how many rows share a stack.  Three entry points drive it:

* :meth:`BackscatterDemodulator.demodulate` — one tag, whole capture (a
  one-row stack; a memory-mapped capture is read a half-frame at a time);
* :meth:`BackscatterDemodulator.demodulate_many` — every tag riding one
  shared ambient capture at once, one row per tag (bit-identical to
  per-tag :meth:`~BackscatterDemodulator.demodulate`);
* :class:`repro.bsrx.streaming.StreamingDemodulator` — incremental
  consumption of a capture pushed in chunks as it arrives.

A capture whose tail is shorter than a full half-frame (the tail a
streaming receiver flushes, and any externally truncated recording) is handled
explicitly: packets whose sounding/preamble/data symbols run past the end
emit erasure windows (placeholder bits the accounting layer excludes)
instead of being silently dropped mid-grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.bsrx.equalizer import equalizer_taps, estimate_channel_from_known_batch
from repro.bsrx.mod_offset import find_modulation_offset_batch
from repro.lte.ofdm import frame_layout, row_fft, row_ifft
from repro.lte.params import LteParams
from repro.lte.pss import PSS_SYMBOL_IN_SLOT
from repro.lte.resource_grid import symbol_index
from repro.lte.sss import SSS_SYMBOL_IN_SLOT
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.tag.framing import preamble_bits, slot_plan


#: Complex samples one :meth:`BackscatterDemodulator.demodulate_many` block
#: may stack per half-frame over its 58 data symbols (2 MiB per stacked
#: array): 17 rows at 1.4 MHz, 1 at 20 MHz.  It changes only the working
#: set: 16 tags of one 20 MHz frame peak at 41 MB (tracemalloc) one row
#: per block, 52 MB two rows per block and 270 MB as one block.
STACK_SAMPLES = 2**17


def window_snr_db(soft, reference_power=None):
    """Post-detection SNR proxy of one window's matched-filter outputs.

    For ±1 chips the soft values are ``a_k * b_k + n_k``, so the
    second-moment method estimates the signal amplitude as ``mean(|s|)``
    and the noise power as ``mean(s^2) - mean(|s|)^2``.  A clean window
    has tightly clustered ``|s|`` (noise power near zero, SNR large); a
    jammed window's soft values scatter and the ratio collapses — the
    statistic the per-window erasure escalation gates on.

    The matched-filter output scales with the ambient's per-chip power
    ``|x_k|^2``, which fluctuates strongly across an OFDM symbol — raw
    soft values therefore scatter even on a noiseless link.  Pass that
    chip power as ``reference_power`` to divide it out first; the
    normalised values cluster at ``±b`` per chip and the proxy then
    measures link corruption, not ambient amplitude statistics.
    """
    soft = np.asarray(soft, dtype=float)
    if len(soft) == 0:
        return float("-inf")
    if reference_power is not None:
        reference_power = np.asarray(reference_power, dtype=float)
        floor = 1e-12 * float(np.mean(reference_power))
        soft = soft / np.maximum(reference_power, floor if floor > 0 else 1.0)
    amplitude = float(np.mean(np.abs(soft)))
    if amplitude == 0.0:
        return float("-inf")
    power = float(np.mean(soft**2))
    noise = max(power - amplitude**2, 1e-12 * power)
    return float(10.0 * np.log10(amplitude**2 / noise))


@dataclass
class PacketRecord:
    """Per-packet demodulation bookkeeping."""

    half_frame_start: int
    slot: int
    offset: int
    gain: complex
    metric: float
    model: str = "post-eq"
    preamble_errors: int = 0
    data_starts: list = field(default_factory=list)


@dataclass
class BsDemodResult:
    """Recovered chip stream for one capture."""

    bits: np.ndarray  # concatenated data bits, packet order
    soft: np.ndarray  # matched-filter soft values, same order
    starts: np.ndarray  # absolute sample index of each data window
    window_bits: list = field(default_factory=list)  # per-window bit arrays
    #: Per-window erasure flags: True where the packet's preamble
    #: correlation collapsed (sync lost) and the bits are placeholders.
    window_erased: list = field(default_factory=list)
    packets: list = field(default_factory=list)

    @property
    def n_data_windows(self):
        return len(self.window_bits)

    @property
    def n_erased_windows(self):
        return int(sum(bool(flag) for flag in self.window_erased))


class DemodSink:
    """Accumulates one capture's windows/packets across half-frame calls.

    ``base`` is added to every emitted sample index — the streaming path
    hands the core a chunk-local view and shifts results back to absolute
    capture coordinates through it.
    """

    __slots__ = (
        "base",
        "window_bits",
        "window_soft",
        "window_erased",
        "starts",
        "packets",
        "truncated_windows",
    )

    def __init__(self):
        self.base = 0
        self.window_bits = []
        self.window_soft = []
        self.window_erased = []
        self.starts = []
        self.packets = []
        self.truncated_windows = 0

    def add_window(self, bits, soft, start, erased, record):
        absolute = self.base + int(start)
        self.window_bits.append(bits)
        self.window_soft.append(soft)
        self.window_erased.append(erased)
        self.starts.append(absolute)
        record.data_starts.append(absolute)

    def add_erasure(self, start, record, n_chips):
        """A placeholder window the accounting layer excludes."""
        bits = np.zeros(n_chips, dtype=np.int8)
        self.add_window(bits, np.zeros(n_chips), start, True, record)

    def result(self):
        if self.window_bits:
            bits = np.concatenate(self.window_bits)
            soft = np.concatenate(self.window_soft)
        else:
            bits = np.zeros(0, dtype=np.int8)
            soft = np.zeros(0)
        obs_metrics.counter_inc("bsrx.packets", len(self.packets))
        obs_metrics.counter_inc("bsrx.windows", len(self.window_bits))
        n_erased = sum(self.window_erased)
        if n_erased:
            obs_metrics.counter_inc("bsrx.erasures", n_erased)
        if self.truncated_windows:
            obs_metrics.counter_inc("bsrx.truncated_windows", self.truncated_windows)
        return BsDemodResult(
            bits=bits,
            soft=soft,
            starts=np.asarray(self.starts, dtype=np.int64),
            window_bits=self.window_bits,
            window_erased=self.window_erased,
            packets=self.packets,
        )


class BackscatterDemodulator:
    """Demodulate tag chips from a shifted-band capture."""

    def __init__(
        self, params, search_slack=None, erasure_threshold=None, snr_gate_db=None
    ):
        self.params = (
            params if isinstance(params, LteParams) else LteParams.from_bandwidth(params)
        )
        self.n_chips = self.params.n_subcarriers
        self.nominal_offset = (self.params.fft_size - self.n_chips) // 2
        # By default search the whole guard either side of nominal.
        self.search_slack = (
            int(search_slack) if search_slack is not None else self.nominal_offset
        )
        self._preamble = preamble_bits(self.n_chips)
        self._preamble_signs = (2 * self._preamble - 1).astype(float)
        #: Erasure detection: when the better of the two per-packet
        #: hypotheses still mis-slices more than this fraction of the
        #: *known* preamble, the receiver has lost sync for that packet
        #: (a random guess errs ~50 %); its data windows are emitted as
        #: erasures instead of garbage bits, and demodulation re-acquires
        #: at the next PSS-derived half-frame boundary.  ``None`` keeps
        #: the legacy always-emit behaviour.
        self.erasure_threshold = (
            float(erasure_threshold) if erasure_threshold is not None else None
        )
        #: Per-window erasure escalation: even when a packet's preamble
        #: passed, a *data* window whose post-detection SNR proxy
        #: (:func:`window_snr_db`) falls below this many dB is emitted as
        #: an erasure instead of bits — a jammer burst inside an otherwise
        #: healthy packet then feeds the ARQ path instead of the BER.
        #: ``None`` (default) disables the gate (bit-identical legacy).
        self.snr_gate_db = float(snr_gate_db) if snr_gate_db is not None else None
        useful = frame_layout(self.params).useful_starts
        #: Samples one half-frame's demodulation reaches past its start
        #: (the end of slot 9's last useful symbol == the half-frame
        #: stride, so consecutive half-frames tile the capture exactly).
        self.half_frame_span = int(useful[symbol_index(9, 6)]) + self.params.fft_size
        # One half-frame's symbol geometry, as useful-symbol offsets from
        # its start: the cascade sounding (SSS, PSS), each packet's
        # preamble, and its data symbols, numbered in capture order.
        plan = slot_plan()
        sounding = (SSS_SYMBOL_IN_SLOT, PSS_SYMBOL_IN_SLOT)
        self._sounding_offsets = useful[[symbol_index(0, sym) for sym in sounding]]
        self._slots = [packet[0][0] for packet in plan]
        self._preamble_offsets = useful[[symbol_index(*packet[0]) for packet in plan]]
        self._data_offsets = useful[
            [symbol_index(*sym) for packet in plan for sym in packet[1:]]
        ]
        self._data_packet = np.array(
            [p for p, packet in enumerate(plan) for _ in packet[1:]]
        )
        self._packet_windows = [
            np.flatnonzero(self._data_packet == p).tolist() for p in range(len(plan))
        ]

    # -- per-row helpers (row t of every stack is one symbol) -------------------
    #
    # Complex products are spelled ``np.multiply(a, b)``: on a stack of
    # 256 KiB or more NumPy may evaluate ``a * np.conj(b)`` in place as
    # ``conj(b) *= a``, and the SIMD complex multiply is not bitwise
    # commutative, so a row would depend on how many rows it shares a
    # stack with.  Gathers index a sliding-window view, so each output row
    # is one contiguous copy rather than a per-sample fancy index.

    def _symbols(self, stack, rows, starts):
        """Row ``t``: the useful symbol of ``stack[rows[t]]`` at ``starts[t]``."""
        return sliding_window_view(stack, self.params.fft_size, axis=1)[rows, starts]

    def _chips(self, values, offsets):
        """Row ``t``'s chip window starting at ``offsets[t]``."""
        windows = sliding_window_view(values, self.n_chips, axis=1)
        return windows[np.arange(len(offsets)), offsets]

    def _chip_waveform_batch(self, offsets):
        """Per-row ±1 chip waveforms: row ``t``'s preamble at ``offsets[t]``."""
        chips = np.ones((len(offsets), self.params.fft_size))
        windows = sliding_window_view(chips, self.n_chips, axis=1, writeable=True)
        windows[np.arange(len(offsets)), offsets] = self._preamble_signs
        return chips

    @staticmethod
    def _filter(values, taps, denominators):
        """Row ``t``: ``ifft(fft(values[t]) * taps[t] / denominators[t])``;
        a denominator of 1 (the cascade filter) divides exactly."""
        spectrum = row_fft(values)
        np.multiply(spectrum, taps, out=spectrum)
        np.divide(spectrum, denominators, out=spectrum)
        return row_ifft(spectrum)

    @staticmethod
    def _soft(signal, template):
        """Matched-filter outputs ``Re(signal * conj(template))``."""
        return np.multiply(signal, np.conj(template)).real.copy()

    def _derotated(self, y, gains, offsets):
        """Hypothesis B's capture chips, derotated by the path gain."""
        return np.multiply(np.conj(gains)[:, None], self._chips(y, offsets))

    def _preamble_errors(self, soft):
        return np.sum((soft > 0).astype(np.int8) != self._preamble, axis=1)

    # -- the per-half-frame core --------------------------------------------------

    def demodulate_half_frame(self, shifted, reference, half_start, sinks):
        """Demodulate one half-frame of every row of a capture stack.

        ``shifted``/``reference`` are ``(n_rows, n_samples)`` stacks on one
        shared half-frame grid; ``sinks`` holds one :class:`DemodSink` per
        row, and emitted indices are shifted by each sink's ``base``.  The
        stacks end where the capture ends: a half-frame reaching past it
        is the truncated-tail case — packets that still fit demodulate
        normally, the rest emit erasure windows.

        Every packet preamble and every data symbol of every row is one
        row of a batched transform, and each row's output depends on that
        row alone, so a one-row stack is the per-tag receiver.  Returns
        the ``(n_rows, fft_size)`` cascade sounding, or ``None`` when the
        sounding runs past the end of the capture.
        """
        half_start = int(half_start)
        if half_start < 0:
            return None
        fft = self.params.fft_size
        n_rows, limit = shifted.shape
        cascade = None
        n_packets = n_data = 0
        if half_start + self._sounding_offsets.max() + fft <= limit:
            # Preamble and data symbols come in capture order, so the ones
            # that fit before the end of the capture are a prefix.
            n_packets = int(np.sum(half_start + self._preamble_offsets + fft <= limit))
            n_data = int(np.sum(half_start + self._data_offsets + fft <= limit))
            with span("bsrx.sync"):
                # Sound the cascade on the tag's unmodulated PSS/SSS reflection.
                row, k = np.divmod(np.arange(2 * n_rows), 2)
                starts = half_start + self._sounding_offsets[k]
                estimates = estimate_channel_from_known_batch(
                    self._symbols(shifted, row, starts),
                    self._symbols(reference, row, starts),
                )
                cascade = np.mean(estimates.reshape(n_rows, 2, fft), axis=1)

        if n_packets:
            with span("bsrx.phase_offset"):
                # Per (row, packet), flattened row-major.
                row, k = np.divmod(np.arange(n_rows * n_packets), n_packets)
                starts = half_start + self._preamble_offsets[k]
                y0 = self._symbols(shifted, row, starts)
                x0 = self._symbols(reference, row, starts)
                est_a = find_modulation_offset_batch(
                    y0, x0, self._preamble, self.nominal_offset, self.search_slack
                )
                channel_a = estimate_channel_from_known_batch(
                    y0, x0 * self._chip_waveform_batch(est_a.offsets)
                )
                # Hypothesis A (flat in-hop): equalise by the out-hop channel.
                taps_a, denominators_a = equalizer_taps(channel_a)
                y_eq = self._filter(y0, taps_a, denominators_a)
                lo = est_a.offsets
                soft = self._soft(self._chips(y_eq, lo), self._chips(x0, lo))
                errors_a = self._preamble_errors(soft)
                # Hypothesis B (flat out-hop): match the cascaded reference.
                w0 = self._filter(x0, cascade[row], 1.0)
                est_b = find_modulation_offset_batch(
                    y0, w0, self._preamble, self.nominal_offset, self.search_slack
                )
                lo = est_b.offsets
                soft = self._soft(self._derotated(y0, est_b.gains, lo), self._chips(w0, lo))
                errors_b = self._preamble_errors(soft)
            use_post = errors_a <= errors_b
            # One filter per (row, packet) for its data symbols.
            taps = np.where(use_post[:, None], taps_a, cascade[row])
            denominators = np.where(use_post[:, None], denominators_a, 1.0)
            errors = np.minimum(errors_a, errors_b)
            if self.erasure_threshold is not None:
                lost = errors > self.erasure_threshold * self.n_chips
            else:
                lost = np.zeros(len(errors), dtype=bool)
            offsets = np.where(use_post, est_a.offsets, est_b.offsets)
            gains = np.where(use_post, est_a.gains, est_b.gains)
            metrics = np.where(use_post, est_a.metrics, est_b.metrics)
            models = np.where(use_post, "post-eq", "predistort")
            # Each (row, packet)'s record; a sync-lost packet keeps the
            # nominal offset and no gain.
            records = list(
                zip(
                    np.where(lost, self.nominal_offset, offsets).tolist(),
                    np.where(lost, 0j, gains).tolist(),
                    np.where(lost, 0.0, metrics).tolist(),
                    np.where(lost, "erased", models).tolist(),
                    errors.tolist(),
                )
            )

        if n_data:
            # Per (row, data symbol), flattened row-major; ``packet`` is the
            # (row, packet) whose decisions the window follows.
            row, d = np.divmod(np.arange(n_rows * n_data), n_data)
            packet = row * n_packets + self._data_packet[d]
            starts = half_start + self._data_offsets[d]
            with span("bsrx.equalise"):
                # Post-eq rows filter the capture, predistort rows the
                # reference; then each matches its chips against the other.
                y = self._symbols(shifted, row, starts)
                x = self._symbols(reference, row, starts)
                post = use_post[packet][:, None]
                filtered = self._filter(
                    np.where(post, y, x), taps[packet], denominators[packet]
                )
                lo = offsets[packet]
                x_chips = self._chips(x, lo)
                filtered_chips = self._chips(filtered, lo)
                derotated = self._derotated(y, est_b.gains[packet], lo)
                soft = self._soft(
                    np.where(post, filtered_chips, derotated),
                    np.where(post, x_chips, filtered_chips),
                )
                power = np.abs(x_chips) ** 2
            with span("bsrx.demod"):
                bits = (soft > 0).astype(np.int8)

        data_starts = (half_start + self._data_offsets).tolist()
        for row, sink in enumerate(sinks):
            for p, slot in enumerate(self._slots):
                k = row * n_packets + p
                if p < n_packets:
                    fields = records[k]
                else:
                    fields = (self.nominal_offset, 0j, 0.0, "truncated", self.n_chips)
                record = PacketRecord(sink.base + half_start, slot, *fields)
                live = p < n_packets and not lost[k]
                for d in self._packet_windows[p]:
                    if not live or d >= n_data:
                        # Truncated, or the packet's preamble correlation
                        # collapsed (sync lost; the next PSS-derived
                        # boundary re-acquires): an erasure at the nominal
                        # offset.  Only windows that start inside the
                        # capture exist as far as accounting is concerned.
                        start = data_starts[d] + self.nominal_offset
                        if start < limit:
                            sink.add_erasure(start, record, self.n_chips)
                            sink.truncated_windows += record.model != "erased"
                        continue
                    i = row * n_data + d
                    start = data_starts[d] + record.offset
                    if (
                        self.snr_gate_db is not None
                        and window_snr_db(soft[i], power[i]) < self.snr_gate_db
                    ):
                        # SNR-gated erasure escalation: a jammed data symbol
                        # inside an otherwise healthy packet becomes an
                        # erasure (ARQ-visible) instead of garbage bits.
                        sink.add_erasure(start, record, self.n_chips)
                        obs_metrics.counter_inc("bsrx.snr_erasures")
                        continue
                    sink.add_window(bits[i], soft[i], start, False, record)
                if p < n_packets or record.data_starts:
                    sink.packets.append(record)
        return cascade

    # -- main entries --------------------------------------------------------------

    def demodulate(self, shifted_samples, ambient_reference, half_frame_starts):
        """Run the pipeline over every packet of a capture.

        ``half_frame_starts`` are the UE's (PSS-derived) half-frame
        boundaries, sample indices into both input arrays.  This is
        :meth:`demodulate_many` on a one-row stack.
        """
        shifted_samples = np.asarray(shifted_samples, dtype=complex)
        ambient_reference = np.asarray(ambient_reference, dtype=complex)
        if shifted_samples.shape != ambient_reference.shape:
            raise ValueError("capture and reference must be sample-aligned")
        (result,) = self.demodulate_many(
            shifted_samples[None], ambient_reference[None], half_frame_starts
        )
        return result

    def demodulate_many(self, shifted_stack, reference_stack, half_frame_starts):
        """Demodulate every tag riding one shared ambient capture at once.

        ``shifted_stack``/``reference_stack`` are ``(n_tags, n_samples)``
        stacks — row ``t`` is what tag ``t``'s UE captured and
        reconstructed.  All tags share the PSS-derived half-frame grid of
        the common ambient, so each half-frame runs as
        :meth:`demodulate_half_frame` calls over blocks of rows, as many
        rows per block as keep its stacked data symbols within
        :data:`STACK_SAMPLES` (17 rows at 1.4 MHz, one at 20 MHz).

        Returns one :class:`BsDemodResult` per row, each bit-identical to
        ``demodulate(shifted_stack[t], reference_stack[t], ...)``.
        """
        shifted_stack = np.asarray(shifted_stack, dtype=complex)
        reference_stack = np.asarray(reference_stack, dtype=complex)
        if shifted_stack.ndim != 2:
            raise ValueError("expected (n_tags, n_samples) stacks")
        if shifted_stack.shape != reference_stack.shape:
            raise ValueError("captures and references must be sample-aligned")

        n_tags = shifted_stack.shape[0]
        sinks = [DemodSink() for _ in range(n_tags)]
        row_samples = len(self._data_offsets) * self.params.fft_size
        block = max(1, STACK_SAMPLES // row_samples)
        for half_start in half_frame_starts:
            for lo in range(0, n_tags, block):
                rows = slice(lo, lo + block)
                self.demodulate_half_frame(
                    shifted_stack[rows], reference_stack[rows], half_start, sinks[rows]
                )
        return [sink.result() for sink in sinks]
