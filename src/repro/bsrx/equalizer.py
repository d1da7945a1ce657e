"""Backscatter-path channel estimation and equalisation.

The phase offset of paper Eq. 5 is the flat-channel special case; over a
multipath channel the rotation varies per subcarrier (the paper's
challenge C3: "the phase offset is varying on different subcarriers").
The tag's preamble symbol doubles as a full-band sounding sequence — chip
modulation spreads the LTE signal over the entire FFT band, so a single
preamble symbol excites every bin.  The channel is estimated by weighted
least squares with circular smoothing across bins: backscatter channels
are short (a few taps), so the true response varies slowly in frequency,
and the smoothing both averages noise and rides over the sounding
spectrum's occasional deep nulls.
"""

from __future__ import annotations

import numpy as np

from repro.lte.ofdm import row_fft, row_ifft

#: Default smoothing window (bins).  A W-bin boxcar tolerates delay spreads
#: up to ~N/W samples; channels here are <= a handful of taps.
DEFAULT_SMOOTH_BINS = 15


def _circular_smooth(values, window):
    """Circular moving average along a 1-D complex array."""
    window = int(window)
    if window <= 1:
        return values.copy()
    kernel = np.zeros(len(values))
    half = window // 2
    kernel[: half + 1] = 1.0
    kernel[-half:] = 1.0
    kernel /= kernel.sum()
    return np.fft.ifft(np.fft.fft(values) * np.fft.fft(kernel))


def estimate_channel_from_known(observed, expected, smooth_bins=DEFAULT_SMOOTH_BINS):
    """Per-bin channel from one symbol whose content is known.

    ``observed``/``expected`` are same-length time-domain useful symbols.
    Returns the length-N frequency response, computed as smoothed
    cross-spectrum over smoothed sounding power (weighted LS).
    """
    observed = np.asarray(observed, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must be the same length")
    y = np.fft.fft(observed)
    e = np.fft.fft(expected)
    cross = _circular_smooth(y * np.conj(e), smooth_bins)
    power = _circular_smooth((np.abs(e) ** 2).astype(complex), smooth_bins).real
    lam = 0.01 * float(np.mean(power)) + 1e-30
    return cross / (power + lam)


def equalize_symbol(observed, channel):
    """MMSE-style one-tap equalisation of a useful symbol, per bin."""
    observed = np.asarray(observed, dtype=complex)
    channel = np.asarray(channel, dtype=complex)
    if observed.shape != channel.shape:
        raise ValueError("symbol and channel must be the same length")
    y = np.fft.fft(observed)
    power = np.abs(channel) ** 2
    lam = 0.01 * float(np.mean(power)) + 1e-30
    equalized = y * np.conj(channel) / (power + lam)
    return np.fft.ifft(equalized)


# -- batched (leading tag axis) variants --------------------------------------
#
# Row-for-row bit-identical to the 1-D functions above: the transforms are
# the same pocketfft (see repro.lte.ofdm.row_fft), the smoothing kernel is
# shared across rows, and the regulariser is a per-row mean computed with
# the same pairwise summation as the 1-D case.  Complex products are
# spelled ``np.multiply(a, b)``: on a stack of 256 KiB or more NumPy may
# evaluate ``a * np.conj(b)`` in place as ``conj(b) *= a``, and the SIMD
# complex multiply is not bitwise commutative, so a row would depend on the
# stack's height.  The demodulator stacks packet symbols along axis 0.


def _circular_smooth_rows(values, window):
    """Circular moving average along the last axis of a complex array."""
    window = int(window)
    if window <= 1:
        return values.copy()
    n = values.shape[-1]
    kernel = np.zeros(n)
    half = window // 2
    kernel[: half + 1] = 1.0
    kernel[-half:] = 1.0
    kernel /= kernel.sum()
    return row_ifft(np.multiply(row_fft(values), np.fft.fft(kernel)))


def estimate_channel_from_known_batch(
    observed, expected, smooth_bins=DEFAULT_SMOOTH_BINS
):
    """Row-wise :func:`estimate_channel_from_known` over a tag axis.

    ``observed``/``expected`` are ``(n_tags, fft_size)`` stacks of useful
    symbols; returns the ``(n_tags, fft_size)`` frequency responses.
    """
    observed = np.asarray(observed, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must be the same shape")
    y = row_fft(observed)
    e = row_fft(expected)
    cross = _circular_smooth_rows(np.multiply(y, np.conj(e)), smooth_bins)
    power = _circular_smooth_rows((np.abs(e) ** 2).astype(complex), smooth_bins).real
    lam = 0.01 * np.mean(power, axis=-1, keepdims=True) + 1e-30
    return cross / (power + lam)


def equalizer_taps(channel):
    """Row-wise :func:`equalize_symbol` filter as ``(taps, denominators)``.

    Equalising is ``ifft(fft(y) * taps / denominators)``; a receiver that
    equalises many symbols by one channel computes these once per channel.
    """
    channel = np.asarray(channel, dtype=complex)
    power = np.abs(channel) ** 2
    lam = 0.01 * np.mean(power, axis=-1, keepdims=True) + 1e-30
    return np.conj(channel), power + lam

