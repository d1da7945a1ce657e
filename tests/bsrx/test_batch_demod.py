"""Batched cross-tag demodulation: bit-identity to the per-tag loop.

``demodulate_many`` stacks every tag riding one shared ambient into a
single batched FFT pass; its contract is *exact* equality with calling
``demodulate`` per tag — same bits, same soft values, same packet
records, down to the float.  These tests exercise tags with different
sync errors, path gains, and noise levels (so post-eq, predistort, and
erased model choices all occur across the stack) and assert that
contract.
"""

import numpy as np
import pytest

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.bsrx.equalizer import (
    equalize_symbol,
    equalizer_taps,
    estimate_channel_from_known,
    estimate_channel_from_known_batch,
)
from repro.bsrx.mod_offset import (
    find_modulation_offset,
    find_modulation_offset_batch,
)
from repro.core import LScatterSystem, SystemConfig
from repro.lte import LteTransmitter
from repro.lte.ofdm import frame_layout
from repro.lte.pss import PSS_SYMBOL_IN_SLOT
from repro.lte.resource_grid import symbol_index
from repro.lte.sss import SSS_SYMBOL_IN_SLOT
from repro.tag.framing import preamble_bits, slot_plan
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng

#: Per-tag (sync error in samples, flat path gain, SNR dB) — spread wide
#: enough that different tags pick different demod models.
_TAG_MIX = (
    (-12, 0.9 * np.exp(0.3j), 30.0),
    (0, 1.1 * np.exp(-1.0j), 18.0),
    (7, 0.5 * np.exp(2.2j), 8.0),
    (15, 1.0, 2.0),
)


def _stacks(n_tags, n_frames=2, seed=0, bandwidth=1.4):
    capture = LteTransmitter(bandwidth, rng=seed).transmit(n_frames)
    params = capture.params
    ambient = np.asarray(capture.samples, dtype=complex)
    rows = []
    for t in range(n_tags):
        error, gain, snr = _TAG_MIX[t % len(_TAG_MIX)]
        controller = TagController(params, rng=seed + t)
        payload = make_rng(100 + t).integers(0, 2, size=20000).astype(np.int8)
        timing = controller.genie_timing(0, error)
        schedule = controller.build_schedule(timing, len(ambient), payload)
        hybrid = gain * ChipModulator().reflect(ambient, schedule.chips)
        rows.append(awgn(hybrid, snr, make_rng(200 + t)))
    shifted = np.stack(rows)
    reference = np.stack([ambient] * n_tags)
    half = params.samples_per_frame // 2
    halves = np.arange(0, shifted.shape[1] - half + 1, half)
    return params, shifted, reference, halves


def _assert_same(a, b):
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.soft, b.soft)
    np.testing.assert_array_equal(a.starts, b.starts)
    assert list(a.window_erased) == list(b.window_erased)
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


@pytest.mark.parametrize(
    "erasure_threshold, bandwidth, n_tags",
    [
        pytest.param(None, 1.4, 4, id="None"),
        pytest.param(0.35, 1.4, 4, id="0.35"),
        # 8 x 2048 complex values per stacked symbol reach NumPy's 256 KiB
        # temporary-elision threshold, where operand order can flip.
        pytest.param(None, 20.0, 8, id="20MHz-8tags"),
    ],
)
def test_batched_matches_per_tag(erasure_threshold, bandwidth, n_tags):
    params, shifted, reference, halves = _stacks(
        n_tags, n_frames=1 if bandwidth > 1.4 else 2, bandwidth=bandwidth
    )
    demod = BackscatterDemodulator(params, erasure_threshold=erasure_threshold)
    batched = demod.demodulate_many(shifted, reference, halves)
    for t in range(shifted.shape[0]):
        serial = demod.demodulate(shifted[t], reference[t], halves)
        _assert_same(serial, batched[t])


def test_batched_models_actually_diverge():
    """The mix must exercise more than one demod model, otherwise the
    equality test above proves less than it claims."""
    params, shifted, reference, halves = _stacks(4)
    demod = BackscatterDemodulator(params, erasure_threshold=0.35)
    results = demod.demodulate_many(shifted, reference, halves)
    models = {p.model for r in results for p in r.packets}
    assert len(models) > 1, models


def test_batched_matches_per_tag_on_truncated_capture():
    """The scalar fallback for a partial trailing half-frame stays
    bit-identical too (the batch path hands those to the per-tag core)."""
    params, shifted, reference, halves = _stacks(3)
    half = params.samples_per_frame // 2
    cut = shifted.shape[1] - half + 2 * half // 3
    halves = np.arange(0, cut, half)
    demod = BackscatterDemodulator(params)
    batched = demod.demodulate_many(
        shifted[:, :cut], reference[:, :cut], halves
    )
    for t in range(shifted.shape[0]):
        serial = demod.demodulate(shifted[t, :cut], reference[t, :cut], halves)
        _assert_same(serial, batched[t])
    assert any(any(r.window_erased) for r in batched)


def test_single_tag_stack_matches_scalar_call():
    params, shifted, reference, halves = _stacks(1)
    demod = BackscatterDemodulator(params)
    (batched,) = demod.demodulate_many(shifted, reference, halves)
    _assert_same(demod.demodulate(shifted[0], reference[0], halves), batched)


def test_batched_shape_validation():
    demod = BackscatterDemodulator(1.4)
    with pytest.raises(ValueError):
        demod.demodulate_many(
            np.zeros(10, complex), np.zeros(10, complex), [0]
        )
    with pytest.raises(ValueError):
        demod.demodulate_many(
            np.zeros((2, 10), complex), np.zeros((2, 9), complex), [0]
        )


def test_batched_helpers_are_row_independent():
    """Each row of a batched helper equals the 1-D helper on that row, on
    a stack big enough (16 x 2048 complex) for NumPy's temporary elision."""
    rng = make_rng(7)
    shape = (16, 2048)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    channels = estimate_channel_from_known_batch(a, b)
    equalized = BackscatterDemodulator._filter(a, *equalizer_taps(b))
    preamble = make_rng(8).integers(0, 2, size=1200).astype(np.int8)
    offsets = find_modulation_offset_batch(a, b, preamble, 424, 424)
    for t in range(shape[0]):
        np.testing.assert_array_equal(
            channels[t], estimate_channel_from_known(a[t], b[t])
        )
        np.testing.assert_array_equal(equalized[t], equalize_symbol(a[t], b[t]))
        row = find_modulation_offset(a[t], b[t], preamble, 424, 424)
        assert row.offset == offsets.offsets[t]
        assert row.gain == offsets.gains[t]
        assert row.metric == offsets.metrics[t]


def _reference_soft(demod, shifted, reference, half_start):
    """Slow oracle: one half-frame, packet by packet, on the 1-D helpers."""
    fft, n = demod.params.fft_size, demod.n_chips
    useful = frame_layout(demod.params).useful_starts
    preamble = preamble_bits(n)

    def symbol(samples, slot, sym):
        start = half_start + useful[symbol_index(slot, sym)]
        return samples[start : start + fft]

    cascade = np.mean(
        [
            estimate_channel_from_known(
                symbol(shifted, 0, sym), symbol(reference, 0, sym)
            )
            for sym in (SSS_SYMBOL_IN_SLOT, PSS_SYMBOL_IN_SLOT)
        ],
        axis=0,
    )
    soft = []
    for packet in slot_plan():
        y0, x0 = symbol(shifted, *packet[0]), symbol(reference, *packet[0])
        a = find_modulation_offset(
            y0, x0, preamble, demod.nominal_offset, demod.search_slack
        )
        chips = np.ones(fft)
        chips[a.offset : a.offset + n] = 2.0 * preamble - 1
        channel = estimate_channel_from_known(y0, x0 * chips)
        b = find_modulation_offset(
            y0, np.fft.ifft(np.fft.fft(x0) * cascade), preamble,
            demod.nominal_offset, demod.search_slack,
        )

        def post_eq(y, x, lo=a.offset):
            y_eq = equalize_symbol(y, channel)
            return np.real(y_eq[lo : lo + n] * np.conj(x[lo : lo + n]))

        def predistort(y, x, lo=b.offset):
            w = np.fft.ifft(np.fft.fft(x) * cascade)
            return np.real(np.conj(b.gain) * y[lo : lo + n] * np.conj(w[lo : lo + n]))

        errors = [np.sum((f(y0, x0) > 0) != preamble) for f in (post_eq, predistort)]
        model = post_eq if errors[0] <= errors[1] else predistort
        soft += [model(symbol(shifted, *s), symbol(reference, *s)) for s in packet[1:]]
    return np.concatenate(soft)


@pytest.mark.parametrize("bandwidth, seed", [(1.4, 0), (1.4, 3), (20.0, 0)])
def test_core_matches_one_dimensional_reference(bandwidth, seed):
    """The batched core equals a per-packet receiver built on the 1-D
    helpers, with both channel hypotheses chosen across the capture."""
    config = SystemConfig(
        bandwidth_mhz=bandwidth,
        n_frames=1,
        reference_mode="genie",
        enb_to_tag_ft=13.0,
    )
    system = LScatterSystem(config, rng=seed)
    front = system.run_frontend(payload_length=20000)
    result = system.demodulator.demodulate(
        front.shifted_rx, front.reference, front.half_starts
    )
    assert {p.model for p in result.packets} == {"post-eq", "predistort"}
    expected = np.concatenate(
        [
            _reference_soft(system.demodulator, front.shifted_rx, front.reference, h)
            for h in front.half_starts
        ]
    )
    np.testing.assert_array_equal(result.soft, expected)
