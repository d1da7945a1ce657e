"""Cyclic redundancy checks used by LTE (36.212 §5.1.1).

Three generator polynomials: CRC-24A (transport blocks), CRC-16 and CRC-8.
Bit arrays are MSB-first ``int8`` arrays of 0/1, the convention used by the
whole coding chain.

A CRC with a zero initial register is linear over GF(2), so the parity of
a block is the XOR of the parities of its set bits taken one at a time.
:func:`crc_compute` looks those up in a table memoised per (kind, block
length); :func:`crc_compute_reference` is the bit-serial shift register,
kept as the differential oracle.
"""

from __future__ import annotations

import numpy as np

from repro.utils.cache import memoize

#: Generator polynomials (without the leading x^L term), MSB first.
_POLYNOMIALS = {
    "crc24a": (24, 0x864CFB),
    "crc16": (16, 0x1021),
    "crc8": (8, 0x9B),
}


def _polynomial(kind):
    if kind not in _POLYNOMIALS:
        raise ValueError(f"unknown CRC kind {kind!r}")
    return _POLYNOMIALS[kind]


# Bounded: framed payloads bring block lengths from outside the LTE chain.
@memoize(maxsize=128)
def _single_bit_parities(kind, n_bits):
    """Register value for a length-``n_bits`` block with only bit ``i`` set.

    Bit ``i`` enters the register as the polynomial and is then shifted
    through the ``n_bits - 1 - i`` zeros after it.
    """
    length, poly = _POLYNOMIALS[kind]
    mask = (1 << length) - 1
    top = 1 << (length - 1)
    table = np.empty(n_bits, dtype=np.int64)
    register = poly
    for i in range(n_bits - 1, -1, -1):
        table[i] = register
        register = ((register << 1) & mask) ^ (poly if register & top else 0)
    return table


def _register_bits(register, length):
    """MSB-first ``int8`` bits of a CRC register."""
    return ((register >> np.arange(length - 1, -1, -1)) & 1).astype(np.int8)


def crc_compute(bits, kind="crc24a"):
    """Compute the CRC of a bit array; returns an ``int8`` bit array.

    >>> parity = crc_compute(np.zeros(10, dtype=np.int8))
    >>> int(parity.sum())
    0
    """
    length, _ = _polynomial(kind)
    bits = np.asarray(bits, dtype=np.int8)
    table = _single_bit_parities(kind, len(bits))
    return _register_bits(np.bitwise_xor.reduce(table[bits == 1]), length)


def crc_compute_reference(bits, kind="crc24a"):
    """Bit-serial shift-register CRC; the oracle for :func:`crc_compute`."""
    length, poly = _polynomial(kind)
    register = 0
    mask = (1 << length) - 1
    top = 1 << (length - 1)
    for bit in np.asarray(bits, dtype=np.int64):
        feedback = ((register & top) >> (length - 1)) ^ int(bit)
        register = ((register << 1) & mask) ^ (poly if feedback else 0)
    return _register_bits(register, length)


def crc_attach(bits, kind="crc24a"):
    """Append the CRC parity bits to ``bits``."""
    bits = np.asarray(bits, dtype=np.int8)
    return np.concatenate([bits, crc_compute(bits, kind)])


def crc_check(bits_with_crc, kind="crc24a"):
    """Validate a CRC-terminated block; returns ``(payload, ok)``.

    >>> payload, ok = crc_check(crc_attach(np.ones(8, dtype=np.int8)))
    >>> ok, int(payload.sum())
    (True, 8)
    """
    length, _ = _polynomial(kind)
    bits_with_crc = np.asarray(bits_with_crc, dtype=np.int8)
    if len(bits_with_crc) < length:
        raise ValueError("block shorter than its CRC")
    payload = bits_with_crc[:-length]
    expected = crc_compute(payload, kind)
    ok = bool(np.array_equal(expected, bits_with_crc[-length:]))
    return payload, ok
