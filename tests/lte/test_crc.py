"""CRC tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.lte.coding import crc_attach, crc_check, crc_compute, crc_compute_reference
from repro.utils.rng import make_rng

KINDS = ("crc24a", "crc16", "crc8")
LENGTHS = {"crc24a": 24, "crc16": 16, "crc8": 8}


@pytest.mark.parametrize("kind", KINDS)
def test_parity_length(kind):
    parity = crc_compute(np.ones(40, dtype=np.int8), kind)
    assert len(parity) == LENGTHS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_attach_check_roundtrip(kind):
    rng = make_rng(0)
    payload = rng.integers(0, 2, size=100).astype(np.int8)
    recovered, ok = crc_check(crc_attach(payload, kind), kind)
    assert ok
    assert np.array_equal(recovered, payload)


@pytest.mark.parametrize("kind", KINDS)
def test_single_bit_error_detected(kind):
    rng = make_rng(1)
    payload = rng.integers(0, 2, size=64).astype(np.int8)
    block = crc_attach(payload, kind)
    for position in (0, len(block) // 2, len(block) - 1):
        corrupted = block.copy()
        corrupted[position] ^= 1
        _, ok = crc_check(corrupted, kind)
        assert not ok


def test_burst_error_detected():
    rng = make_rng(2)
    payload = rng.integers(0, 2, size=200).astype(np.int8)
    block = crc_attach(payload, "crc24a")
    corrupted = block.copy()
    corrupted[50:70] ^= 1
    _, ok = crc_check(corrupted, "crc24a")
    assert not ok


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_roundtrip_property(bits):
    payload = np.array(bits, dtype=np.int8)
    recovered, ok = crc_check(crc_attach(payload))
    assert ok and np.array_equal(recovered, payload)


def test_all_zero_payload_zero_crc():
    # CRCs of all-zero messages are zero for these generators.
    assert crc_compute(np.zeros(32, dtype=np.int8)).sum() == 0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        crc_compute(np.zeros(8, dtype=np.int8), "crc32")


def test_check_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown CRC kind 'crc32'"):
        crc_check(np.zeros(40, dtype=np.int8), "crc32")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n_bits=st.integers(0, 3000),
    seed=st.integers(0, 2**16),
)
@example(kind="crc24a", n_bits=0, seed=0)
@example(kind="crc8", n_bits=1, seed=0)
@example(kind="crc16", n_bits=3000, seed=1)
def test_table_crc_matches_bit_serial_reference(kind, n_bits, seed):
    bits = make_rng(seed).integers(0, 2, size=n_bits).astype(np.int8)
    assert np.array_equal(crc_compute(bits, kind), crc_compute_reference(bits, kind))


def test_block_shorter_than_crc_rejected():
    with pytest.raises(ValueError):
        crc_check(np.zeros(10, dtype=np.int8), "crc24a")
