"""Streaming demodulator: bit-identity to the whole-capture call.

Every test builds a real tag-on-ambient capture (transmitter -> tag
schedule -> reflection -> noise) and asserts the incremental receiver's
output — bits, soft values, absolute window starts, erasure flags, and
per-packet records — equals the single whole-capture
:meth:`BackscatterDemodulator.demodulate` call exactly, never just
approximately.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.bsrx.streaming import StreamingDemodulator
from repro.lte import LteTransmitter
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng


def _capture(seed=0, n_frames=3, error_samples=5, snr_db=25.0):
    capture = LteTransmitter(1.4, rng=seed).transmit(n_frames)
    params = capture.params
    controller = TagController(params, rng=seed)
    payload = make_rng(seed + 1).integers(0, 2, size=20000).astype(np.int8)
    timing = controller.genie_timing(0, error_samples)
    schedule = controller.build_schedule(timing, len(capture.samples), payload)
    hybrid = ChipModulator().reflect(capture.samples, schedule.chips)
    if snr_db is not None:
        hybrid = awgn(hybrid, snr_db, make_rng(seed + 2))
    return params, hybrid, np.asarray(capture.samples, dtype=complex)


def _halves(params, n):
    half = params.samples_per_frame // 2
    return np.arange(0, n - half + 1, half)


def _assert_same(a, b):
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.soft, b.soft)
    np.testing.assert_array_equal(a.starts, b.starts)
    assert list(a.window_erased) == list(b.window_erased)
    assert len(a.window_bits) == len(b.window_bits)
    for wa, wb in zip(a.window_bits, b.window_bits):
        np.testing.assert_array_equal(wa, wb)
    assert len(a.packets) == len(b.packets)
    for pa, pb in zip(a.packets, b.packets):
        assert pa.half_frame_start == pb.half_frame_start
        assert pa.slot == pb.slot
        assert pa.offset == pb.offset
        assert pa.model == pb.model
        assert pa.preamble_errors == pb.preamble_errors
        assert pa.gain == pb.gain
        assert pa.metric == pb.metric
        assert list(pa.data_starts) == list(pb.data_starts)


def _push_half_frames(params, hybrid, ref, chunk):
    """push()/finish() in half-frame-aligned chunks of ``chunk`` half-frames."""
    streamer = StreamingDemodulator(params)
    step = chunk * (params.samples_per_frame // 2)
    for lo in range(0, len(hybrid), step):
        streamer.push(hybrid[lo : lo + step], ref[lo : lo + step])
    return streamer.finish()


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_chunked_demodulate_matches_whole_capture(chunk):
    params, hybrid, ref = _capture()
    halves = _halves(params, len(hybrid))
    whole = BackscatterDemodulator(params).demodulate(hybrid, ref, halves)
    _assert_same(whole, _push_half_frames(params, hybrid, ref, chunk))


def test_memmapped_demodulate_reads_one_half_frame_at_a_time(tmp_path):
    """The whole-capture call on a memory-mapped capture needs no chunking
    option: it is bit-identical to push()/finish(), and its peak
    allocation stays below one in-memory copy of the capture."""
    params, hybrid, ref = _capture(seed=3, n_frames=12)
    mapped = []
    for name, values in (("shifted", hybrid), ("reference", ref)):
        path = tmp_path / f"{name}.iq"
        np.ascontiguousarray(values, dtype=complex).tofile(path)
        mapped.append(np.memmap(path, dtype=complex, mode="r"))
    halves = _halves(params, len(hybrid))
    demod = BackscatterDemodulator(params)

    tracemalloc.start()
    try:
        whole = demod.demodulate(mapped[0], mapped[1], halves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < hybrid.nbytes
    _assert_same(whole, _push_half_frames(params, hybrid, ref, 1))


def test_ragged_push_matches_whole_capture():
    """Incremental pushes with arbitrary (mid-packet) chunk boundaries."""
    params, hybrid, ref = _capture(seed=2)
    half = params.samples_per_frame // 2
    halves = _halves(params, len(hybrid))
    whole = BackscatterDemodulator(params).demodulate(hybrid, ref, halves)

    streamer = StreamingDemodulator(params)
    rng = make_rng(99)
    pos = 0
    max_step = 2 * half
    while pos < len(hybrid):
        step = int(rng.integers(37, max_step))
        hi = min(pos + step, len(hybrid))
        streamer.push(hybrid[pos:hi], ref[pos:hi])
        # The buffer only ever holds the unfinished tail.
        assert streamer.buffered_samples <= streamer.demodulator.half_frame_span + max_step
        pos = hi
    _assert_same(whole, streamer.finish())


def test_partial_trailing_half_frame_is_erasure_not_crash():
    """A capture that is not a whole number of half-frames demodulates:
    packets that still fit come out normally, data windows sliced off by
    the end of the capture come out as erasures — never an exception and
    never a silent drop of the whole tail."""
    params, hybrid, ref = _capture(seed=4)
    half = params.samples_per_frame // 2
    # Cut inside the 6th half-frame, landing mid-packet so at least one
    # data window starts before the cut but extends past it.
    cut = 5 * half + 2 * half // 3
    demod = BackscatterDemodulator(params)
    halves = np.arange(0, cut, half)  # includes the partial tail
    result = demod.demodulate(hybrid[:cut], ref[:cut], halves)

    assert any(result.window_erased), "truncated tail produced no erasure"
    assert all(int(s) < cut for s in result.starts)

    # The five full half-frames are untouched by the truncation: their
    # windows are bit-identical to the untruncated run's.
    full = demod.demodulate(hybrid, ref, _halves(params, len(hybrid)))
    n_head = int(np.sum(np.asarray(result.starts) < 5 * half))
    assert n_head == int(np.sum(np.asarray(full.starts) < 5 * half))
    for k in range(n_head):
        assert int(full.starts[k]) == int(result.starts[k])
        np.testing.assert_array_equal(full.window_bits[k], result.window_bits[k])


def test_streaming_matches_whole_capture_on_truncated_tail():
    params, hybrid, ref = _capture(seed=4)
    half = params.samples_per_frame // 2
    cut = 5 * half + 2 * half // 3
    halves = np.arange(0, cut, half)
    whole = BackscatterDemodulator(params).demodulate(
        hybrid[:cut], ref[:cut], halves
    )

    for chunk in (1, 2, 3, 5):
        streamed = _push_half_frames(params, hybrid[:cut], ref[:cut], chunk)
        _assert_same(whole, streamed)

    pushed = StreamingDemodulator(params)
    mid = 3 * half + 17
    pushed.push(hybrid[:mid], ref[:mid])
    pushed.push(hybrid[mid:cut], ref[mid:cut])
    _assert_same(whole, pushed.finish())


def test_carry_tracks_grid_and_gain():
    params, hybrid, ref = _capture(seed=1)
    half = params.samples_per_frame // 2
    streamer = StreamingDemodulator(params)
    streamer.push(hybrid, ref)
    assert streamer.carry.half_frames_done == len(hybrid) // half
    assert (
        streamer.carry.next_half_frame_start
        == streamer.carry.half_frames_done * half
    )
    # At high SNR at least one packet decoded, so the carried gain is the
    # last non-erased packet's path gain.
    result = streamer.finish()
    live = [p for p in result.packets if p.model in ("post-eq", "predistort")]
    assert live
    assert streamer.carry.last_gain == live[-1].gain
    assert streamer.carry.last_cascade is not None


def test_stream_misuse_rejected():
    params, hybrid, ref = _capture(seed=0, n_frames=1)
    streamer = StreamingDemodulator(params)
    with pytest.raises(ValueError):
        streamer.push(hybrid[:10], ref[:9])
    streamer.push(hybrid, ref)
    streamer.finish()
    with pytest.raises(RuntimeError):
        streamer.push(hybrid[:10], ref[:10])
    with pytest.raises(RuntimeError):
        streamer.finish()
