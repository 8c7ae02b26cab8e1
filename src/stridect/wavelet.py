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


def _filter_axis(x, f, axis, sign, out):
    """out <- sum_k f[k] x[n - sign * k] along one axis, zero-filled first:
    circular convolution for sign = +1, its adjoint (correlation) for -1.
    out must not share memory with x."""
    out[...] = 0.0
    for k, fk in enumerate(f):
        out += fk * np.roll(x, sign * k, axis=axis)
    return out


@dataclass(frozen=True, eq=False)
class WaveletBands:
    """Level-1 band set as one (4, rows, cols) array: the low band, then the
    high bands lh, hl and hh. ``low`` and ``high`` are views of it."""

    values: np.ndarray = field(repr=False)
    wavelet: str = "haar"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3 or values.shape[0] != 4:
            raise ShapeMismatchError(
                f"bands must be one (4, rows, cols) array, got {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def low(self):
        return self.values[0]

    @property
    def high(self):
        return self.values[1:]

    @property
    def shape(self):
        return self.values.shape[1:]


def swt_decompose(x, wavelet: str = "haar") -> WaveletBands:
    """Undecimated analysis of a 2-D array (or Sinogram) into four bands.

    Band order: (lo, lo), (lo, hi), (hi, lo), (hi, hi), where each pair
    states the filters applied along (axis 0, axis 1); the first is the low
    band, the other three the high bands lh, hl and hh. All four are written
    into one preallocated array.
    """
    lo, hi = filter_pair(wavelet)
    arr = np.asarray(getattr(x, "values", x), dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError("swt_decompose expects a 2-D array")
    values = np.empty((4,) + arr.shape)
    rows = np.empty(arr.shape)
    for i, f0 in enumerate((lo, hi)):
        _filter_axis(arr, f0, 0, 1, rows)
        for j, f1 in enumerate((lo, hi)):
            _filter_axis(rows, f1, 1, 1, values[2 * i + j])
    return WaveletBands(values, wavelet)


def iswt_reconstruct(bands: WaveletBands) -> np.ndarray:
    """Exact inverse of :func:`swt_decompose` (synthesis by scaled adjoint)."""
    pair = filter_pair(bands.wavelet)
    out = np.zeros(bands.shape)
    cols = np.empty(bands.shape)
    rows = np.empty(bands.shape)
    for b, band in enumerate(bands.values):
        _filter_axis(band, pair[b % 2], 1, -1, cols)
        out += _filter_axis(cols, pair[b // 2], 0, -1, rows)
    return out / 4.0
