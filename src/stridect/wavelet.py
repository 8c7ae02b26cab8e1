"""Single-level stationary (undecimated) 2-D wavelet transform.

Periodic boundary handling throughout. Analysis convolves each axis with the
low/high filter pair; synthesis applies the adjoint of analysis and divides
by 4, which is the exact inverse for orthonormal conjugate-mirror filter
pairs (the per-axis DC-to-Nyquist response |H|^2 + |G|^2 is identically 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ShapeMismatchError

_SQRT2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)

# Orthonormal analysis low-pass filters; high-pass is the quadrature mirror.
_LOWPASS = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "db2": np.array([1.0 + _S3, 3.0 + _S3, 3.0 - _S3, 1.0 - _S3]) / (4.0 * _SQRT2),
}


def filter_pair(wavelet: str):
    """Return (lo, hi) analysis filters for a supported wavelet."""
    if wavelet not in _LOWPASS:
        raise InvalidArgumentError(
            f"unsupported wavelet {wavelet!r}; choose from {sorted(_LOWPASS)}"
        )
    lo = _LOWPASS[wavelet]
    n = lo.size
    hi = np.array([(-1.0) ** k * lo[n - 1 - k] for k in range(n)])
    return lo, hi


def _conv_axis(x, f, axis):
    """Circular convolution y[n] = sum_k f[k] x[n-k] along one axis."""
    out = np.zeros_like(x, dtype=np.float64)
    for k, fk in enumerate(f):
        out += fk * np.roll(x, k, axis=axis)
    return out


def _corr_axis(x, f, axis):
    """Adjoint of :func:`_conv_axis`: z[n] = sum_k f[k] x[n+k]."""
    out = np.zeros_like(x, dtype=np.float64)
    for k, fk in enumerate(f):
        out += fk * np.roll(x, -k, axis=axis)
    return out


@dataclass(frozen=True, eq=False)
class WaveletBands:
    """Level-1 band set: one low band and three high bands (lh, hl, hh)."""

    low: np.ndarray = field(repr=False)
    high: tuple = field(repr=False)
    wavelet: str = "haar"

    def __post_init__(self):
        if len(self.high) != 3:
            raise InvalidArgumentError("expected exactly three high bands")
        shapes = {np.asarray(b).shape for b in (self.low, *self.high)}
        if len(shapes) != 1:
            raise ShapeMismatchError(f"band shapes differ: {shapes}")

    @property
    def shape(self):
        return np.asarray(self.low).shape

    def stack_high(self):
        return np.stack(self.high, axis=0)

    def replace(self, low=None, high=None) -> "WaveletBands":
        return WaveletBands(
            low=self.low if low is None else low,
            high=tuple(self.high) if high is None else tuple(high),
            wavelet=self.wavelet,
        )


def swt_decompose(x, wavelet: str = "haar") -> WaveletBands:
    """Undecimated analysis of a 2-D array (or Sinogram) into four bands.

    Band order: low = (lo, lo); high = ((lo, hi), (hi, lo), (hi, hi)) where
    the pair states the filters applied along (axis 0, axis 1).
    """
    lo, hi = filter_pair(wavelet)
    arr = np.asarray(getattr(x, "values", x), dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError("swt_decompose expects a 2-D array")
    r_lo = _conv_axis(arr, lo, 0)
    r_hi = _conv_axis(arr, hi, 0)
    low = _conv_axis(r_lo, lo, 1)
    lh = _conv_axis(r_lo, hi, 1)
    hl = _conv_axis(r_hi, lo, 1)
    hh = _conv_axis(r_hi, hi, 1)
    return WaveletBands(low=low, high=(lh, hl, hh), wavelet=wavelet)


def iswt_reconstruct(bands: WaveletBands) -> np.ndarray:
    """Exact inverse of :func:`swt_decompose` (synthesis by scaled adjoint)."""
    lo, hi = filter_pair(bands.wavelet)
    pairs = (
        (bands.low, lo, lo),
        (bands.high[0], lo, hi),
        (bands.high[1], hi, lo),
        (bands.high[2], hi, hi),
    )
    out = np.zeros(bands.shape, dtype=np.float64)
    for band, f0, f1 in pairs:
        out += _corr_axis(_corr_axis(np.asarray(band, dtype=np.float64), f1, 1), f0, 0)
    return out / 4.0


def energy_constant(wavelet: str) -> float:
    """Sum of squared band-filter norms; the exact band-energy multiplier."""
    lo, hi = filter_pair(wavelet)
    e = float(lo @ lo + hi @ hi)
    return e * e
