"""Modulation-offset determination (paper §3.3.2, Eq. 7).

The tag's coarse sync leaves the true position of its chip window inside
the OFDM symbol unknown to the UE by up to the guard slack.  The tag
prefixes each packet with a known preamble symbol; the UE slides the
preamble over the candidate offsets, and the offset maximising the
correlation (jointly with the implied path gain) is the modulation offset
used for the rest of the packet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve


@dataclass(frozen=True)
class OffsetEstimate:
    """Result of the preamble search for one packet."""

    offset: int  # chip-window start within the useful symbol
    gain: complex  # complex path gain (carries the phase offset phi)
    metric: float  # correlation peak (~|gain| when correctly aligned)


def find_modulation_offset(
    observed_useful,
    expected_useful,
    preamble,
    nominal_offset,
    search_slack,
):
    """Locate the preamble chips inside one useful OFDM symbol.

    ``observed_useful``/``expected_useful`` are the received and
    reconstructed-ambient useful-symbol samples (length = FFT size);
    ``preamble`` the known 0/1 chips; candidates are
    ``nominal_offset ± search_slack``, clamped to keep the window inside
    the symbol.

    Returns an :class:`OffsetEstimate`.
    """
    observed_useful = np.asarray(observed_useful, dtype=complex)
    expected_useful = np.asarray(expected_useful, dtype=complex)
    preamble = np.asarray(preamble, dtype=np.int8)
    n_chips = len(preamble)
    fft_size = len(observed_useful)
    if len(expected_useful) != fft_size:
        raise ValueError("observed and expected symbol lengths differ")

    signs = (2 * preamble - 1).astype(float)
    # Per-sample products z_n = y_n * conj(x_n): equals g * chip_n * |x_n|^2.
    z = observed_useful * np.conj(expected_useful)
    weights = np.abs(expected_useful) ** 2

    lo = max(0, int(nominal_offset) - int(search_slack))
    hi = min(fft_size - n_chips, int(nominal_offset) + int(search_slack))
    if hi < lo:
        raise ValueError("search window is empty")

    # Sliding correlation over every candidate offset at once.
    corr_all = fftconvolve(z, signs[::-1].astype(complex), mode="valid")
    energy_all = fftconvolve(weights, np.ones(n_chips), mode="valid").real
    corr_all = corr_all[lo : hi + 1]
    energy_all = np.maximum(energy_all[lo : hi + 1], 1e-30)

    metrics = np.abs(corr_all) / energy_all
    best = int(np.argmax(metrics))
    offset = lo + best
    gain = corr_all[best] / energy_all[best]
    return OffsetEstimate(
        offset=int(offset), gain=complex(gain), metric=float(metrics[best])
    )


@dataclass(frozen=True)
class OffsetEstimateBatch:
    """Per-tag preamble-search results for one stacked packet symbol."""

    offsets: np.ndarray  # (n_tags,) chip-window starts
    gains: np.ndarray  # (n_tags,) complex path gains
    metrics: np.ndarray  # (n_tags,) correlation peaks


def find_modulation_offset_batch(
    observed_useful,
    expected_useful,
    preamble,
    nominal_offset,
    search_slack,
):
    """Row-wise :func:`find_modulation_offset` over a leading tag axis.

    ``observed_useful``/``expected_useful`` are ``(n_tags, fft_size)``
    stacks of the same packet symbol seen by every tag on one shared
    ambient capture.  The sliding correlations run as one batched
    ``fftconvolve`` along the symbol axis; each row's offset, gain and
    metric are bit-identical to the 1-D search (ties resolve to the first
    maximum in both, and ``argmax(axis=1)`` keeps that order).
    """
    observed_useful = np.asarray(observed_useful, dtype=complex)
    expected_useful = np.asarray(expected_useful, dtype=complex)
    preamble = np.asarray(preamble, dtype=np.int8)
    if observed_useful.ndim != 2:
        raise ValueError("expected (n_tags, fft_size) stacks")
    if observed_useful.shape != expected_useful.shape:
        raise ValueError("observed and expected symbol shapes differ")
    n_chips = len(preamble)
    fft_size = observed_useful.shape[1]

    signs = (2 * preamble - 1).astype(float)
    # np.multiply keeps the operand order on large stacks; see
    # repro.bsrx.equalizer.
    z = np.multiply(observed_useful, np.conj(expected_useful))
    weights = np.abs(expected_useful) ** 2

    lo = max(0, int(nominal_offset) - int(search_slack))
    hi = min(fft_size - n_chips, int(nominal_offset) + int(search_slack))
    if hi < lo:
        raise ValueError("search window is empty")

    corr_all = fftconvolve(
        z, signs[None, ::-1].astype(complex), mode="valid", axes=1
    )
    energy_all = fftconvolve(
        weights, np.ones((1, n_chips)), mode="valid", axes=1
    ).real
    corr_all = corr_all[:, lo : hi + 1]
    energy_all = np.maximum(energy_all[:, lo : hi + 1], 1e-30)

    metrics = np.abs(corr_all) / energy_all
    best = np.argmax(metrics, axis=1)
    rows = np.arange(observed_useful.shape[0])
    return OffsetEstimateBatch(
        offsets=(lo + best).astype(np.int64),
        gains=corr_all[rows, best] / energy_all[rows, best],
        metrics=metrics[rows, best],
    )
