"""Tail-biting convolutional code and Viterbi tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lte.coding import (
    conv_encode,
    conv_encode_reference,
    viterbi_decode,
    viterbi_decode_many,
    viterbi_decode_reference,
)
from repro.lte.coding.convolutional import WINDOW
from repro.utils.rng import make_rng


def _llrs_from_bits(coded, scale=4.0):
    return scale * (1.0 - 2.0 * coded.astype(float))


def test_rate_one_third():
    bits = make_rng(0).integers(0, 2, size=40).astype(np.int8)
    assert len(conv_encode(bits)) == 120


def test_vectorised_encoder_matches_reference():
    rng = make_rng(1)
    for length in (7, 13, 64, 257):
        bits = rng.integers(0, 2, size=length).astype(np.int8)
        assert np.array_equal(conv_encode(bits), conv_encode_reference(bits))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=7, max_size=128))
def test_encoder_equivalence_property(bits):
    bits = np.array(bits, dtype=np.int8)
    assert np.array_equal(conv_encode(bits), conv_encode_reference(bits))


def test_tail_biting_start_equals_end_state():
    # Encoding a rotated message gives a rotated codeword (circularity).
    rng = make_rng(2)
    bits = rng.integers(0, 2, size=30).astype(np.int8)
    rotated = np.roll(bits, 3)
    coded = conv_encode(bits).reshape(-1, 3)
    coded_rot = conv_encode(rotated).reshape(-1, 3)
    assert np.array_equal(np.roll(coded, 3, axis=0), coded_rot)


def test_decode_noiseless():
    rng = make_rng(3)
    bits = rng.integers(0, 2, size=100).astype(np.int8)
    llrs = _llrs_from_bits(conv_encode(bits))
    assert np.array_equal(viterbi_decode(llrs, 100), bits)


def test_decode_with_bit_flips():
    rng = make_rng(4)
    bits = rng.integers(0, 2, size=200).astype(np.int8)
    coded = conv_encode(bits)
    llrs = _llrs_from_bits(coded)
    # Flip 5% of the coded bits: well within the free-distance margin.
    flips = rng.choice(len(llrs), size=len(llrs) // 20, replace=False)
    llrs[flips] = -llrs[flips]
    assert np.array_equal(viterbi_decode(llrs, 200), bits)


def test_decode_with_erasures():
    rng = make_rng(5)
    bits = rng.integers(0, 2, size=150).astype(np.int8)
    llrs = _llrs_from_bits(conv_encode(bits))
    erased = rng.choice(len(llrs), size=len(llrs) // 4, replace=False)
    llrs[erased] = 0.0
    assert np.array_equal(viterbi_decode(llrs, 150), bits)


def test_decode_with_gaussian_noise():
    rng = make_rng(6)
    bits = rng.integers(0, 2, size=500).astype(np.int8)
    clean = 1.0 - 2.0 * conv_encode(bits).astype(float)
    noisy = clean + rng.normal(0, 0.7, size=len(clean))  # ~3 dB Eb/N0
    decoded = viterbi_decode(noisy, 500)
    assert np.mean(decoded != bits) < 0.01


def test_batch_matches_single():
    rng = make_rng(7)
    blocks = [rng.integers(0, 2, size=n).astype(np.int8) for n in (50, 50, 80)]
    llrs = [_llrs_from_bits(conv_encode(b)) for b in blocks]
    batch = viterbi_decode_many(llrs, [len(b) for b in blocks])
    for decoded, original in zip(batch, blocks):
        assert np.array_equal(decoded, original)


def test_batch_length_mismatch_rejected():
    with pytest.raises(ValueError):
        viterbi_decode_many([np.zeros(30)], [10, 20])


def test_llr_count_mismatch_names_the_block():
    with pytest.raises(ValueError, match="block 1: 31 LLRs for 10 message bits"):
        viterbi_decode_many([np.zeros(30), np.zeros(31)], [10, 10])


def _noisy_llrs(rng, n_bits, sigma):
    bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
    clean = 1.0 - 2.0 * conv_encode(bits).astype(float)
    return bits, clean + rng.normal(0, sigma, size=len(clean))


#: Short, window-sized, just-over-window and 20 MHz transport-block lengths.
_MIXED_LENGTHS = (7, 40, 1368, WINDOW, WINDOW + 1, 10666)


def test_windowed_matches_full_trellis_at_operating_noise():
    # One windowed call takes every length and noise level at once; the
    # oracle decodes each length's three noise levels as one batch.
    rng = make_rng(8)
    sigmas = (0.0, 0.6, 0.9)
    cases = {
        n: [_noisy_llrs(rng, n, sigma)[1] for sigma in sigmas] for n in _MIXED_LENGTHS
    }
    windowed = viterbi_decode_many(
        [llrs for n in _MIXED_LENGTHS for llrs in cases[n]],
        [n for n in _MIXED_LENGTHS for _ in sigmas],
    )
    reference = [
        bits for n in _MIXED_LENGTHS for bits in viterbi_decode_reference(cases[n], n)
    ]
    for decoded, expected in zip(windowed, reference):
        assert np.array_equal(decoded, expected)


def test_blocks_up_to_window_match_full_trellis_at_high_noise():
    # At sigma = 3 the survivors merge slowly enough that a shorter
    # circular margin changes the decode of the longer blocks here.
    rng = make_rng(9)
    short = (6, 7, 40, 333, 1368, WINDOW)
    sigmas = (1.5, 3.0, 3.0)
    lengths = [n for _ in sigmas for n in short]
    llrs = [_noisy_llrs(rng, n, sigma)[1] for sigma in sigmas for n in short]
    for decoded, block, n in zip(viterbi_decode_many(llrs, lengths), llrs, lengths):
        assert np.array_equal(decoded, viterbi_decode_reference(block, n))


def test_long_blocks_stay_near_full_trellis_at_high_noise():
    # Fixed seed: the windows' reach-back makes the decode equal the full
    # trellis here; a window seeing only a few steps before its kept bits
    # differs in over a hundred bits.
    rng = make_rng(11)
    n_bits = 10666
    llrs = np.stack([_noisy_llrs(rng, n_bits, 1.5)[1] for _ in range(4)])
    windowed = viterbi_decode_many(llrs, [n_bits] * len(llrs))
    reference = viterbi_decode_reference(llrs, n_bits)
    assert np.count_nonzero(np.stack(windowed) != reference) <= 1e-4 * reference.size


def test_ties_break_as_full_trellis():
    # Erased and flipped unit LLRs make many equal candidate metrics; both
    # decoders must keep the first predecessor on a tie.
    rng = make_rng(10)
    lengths = (7, 40, 333, 1368, WINDOW)
    llrs = []
    for n in lengths:
        quantised = 1.0 - 2.0 * conv_encode(rng.integers(0, 2, size=n))
        quantised[rng.random(quantised.size) < 0.3] = 0.0
        flips = rng.random(quantised.size) < 0.1
        quantised[flips] = -quantised[flips]
        llrs.append(quantised)
    for decoded, block, n in zip(viterbi_decode_many(llrs, lengths), llrs, lengths):
        assert np.array_equal(decoded, viterbi_decode_reference(block, n))


@settings(max_examples=6, deadline=None)
@given(
    n_bits=st.integers(WINDOW + 1, 2 * WINDOW + 500),
    sigma=st.floats(1.0, 1.6),
    seed=st.integers(0, 2**16),
)
def test_windowed_ber_close_to_full_trellis_at_high_noise(n_bits, sigma, seed):
    bits, llrs = _noisy_llrs(make_rng(seed), n_bits, sigma)
    windowed_ber = np.mean(viterbi_decode(llrs, n_bits) != bits)
    full_ber = np.mean(viterbi_decode_reference(llrs, n_bits) != bits)
    assert windowed_ber <= full_ber + 0.01


def test_message_shorter_than_memory_rejected():
    with pytest.raises(ValueError):
        conv_encode(np.array([1, 0, 1], dtype=np.int8))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=10, max_size=96))
def test_decode_roundtrip_property(bits):
    bits = np.array(bits, dtype=np.int8)
    llrs = _llrs_from_bits(conv_encode(bits))
    assert np.array_equal(viterbi_decode(llrs, len(bits)), bits)
