"""Pinned perf benchmark: windowed Viterbi vs the full-trellis oracle.

Decodes one 20 MHz LTE frame's ten transport blocks both ways and asserts
the speedup of ``viterbi_decode_many`` (one windowed sweep over every
block) over ``viterbi_decode_reference`` run as the decoder used to run,
one full-trellis sweep per group of equal-length blocks.  The outputs
must be bit-identical.

Both decoders are timed the same way, as the best of ``REPEATS`` runs.
The required speedup is 3.0x; a 2-core x86 VM measured 7-10x.

Run with:  PYTHONPATH=src python -m pytest benchmarks/test_perf_viterbi.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.lte.coding import conv_encode, viterbi_decode_many, viterbi_decode_reference
from repro.lte.receiver import LteReceiver

#: Acceptance bar for the windowed-vs-full-trellis decode speedup.
MIN_VITERBI_SPEEDUP = 3.0

#: Coded-bit noise of the benchmark blocks (~3 dB Eb/N0, no block errors).
SIGMA = 0.6

#: Timed runs of each decoder; the best one counts.
REPEATS = 3


def _frame_blocks(rng):
    """LLRs and message sizes of one 20 MHz frame's ten transport blocks."""
    receiver = LteReceiver(20.0)
    sizes = [receiver._subframe_bits(sf)[2] + 24 for sf in range(10)]
    llrs = []
    for n_bits in sizes:
        clean = 1.0 - 2.0 * conv_encode(rng.integers(0, 2, n_bits)).astype(float)
        llrs.append(clean + rng.normal(0, SIGMA, len(clean)))
    return llrs, sizes


def _decode_by_length_groups(llrs, sizes):
    """The full-trellis oracle, batched over equal-length blocks."""
    decoded = [None] * len(sizes)
    for n_bits in sorted(set(sizes)):
        members = [i for i, size in enumerate(sizes) if size == n_bits]
        batch = viterbi_decode_reference(np.stack([llrs[i] for i in members]), n_bits)
        for i, bits in zip(members, batch):
            decoded[i] = bits
    return decoded


def _best_of(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_windowed_viterbi_speedup_on_20mhz_frame():
    llrs, sizes = _frame_blocks(np.random.default_rng(0))
    reference_s, expected = _best_of(_decode_by_length_groups, llrs, sizes)
    windowed_s, decoded = _best_of(viterbi_decode_many, llrs, sizes)
    for got, want in zip(decoded, expected):
        assert np.array_equal(got, want)
    speedup = reference_s / windowed_s
    print(
        f"\nviterbi 20 MHz frame ({len(sizes)} blocks, {sum(sizes)} bits): "
        f"full trellis {reference_s:.3f} s, windowed {windowed_s:.3f} s, "
        f"{speedup:.1f}x"
    )
    assert speedup >= MIN_VITERBI_SPEEDUP, (
        f"windowed Viterbi speedup {speedup:.2f}x is below the "
        f"{MIN_VITERBI_SPEEDUP}x bar"
    )
