"""Fan-beam filtered backprojection for a flat detector.

Projection rows are pre-weighted for the fan geometry, convolved (circularly)
with a discrete ramp kernel, then backprojected with the per-pixel detector
coordinate r = D (x cos t + y sin t) / (D - (x sin t - y cos t)), D being the
source-to-center distance and r living on the virtual detector line through
the rotation center.

Backprojection follows the quarter-turn rule of
:func:`~stridect.geometry.quarter_turns`: on a square grid scanned over
exactly 2π with a view count divisible by 4, view v + k·V/4 is view v on the
grid turned k quarter turns. r, its mask and the weight are then computed
for the first V/4 views only; each serves four rows, summed into four
accumulators that are added turned back. The image moves from the per-view
loop by rounding only, at most 1e-13 of its peak value; on any other
geometry every view has its own r and the loop is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, ShapeMismatchError
from .geometry import ImageGrid, Sinogram, SparseMask, quarter_turns

_FILTER_KINDS = ("ram-lak", "hann")
_WEIGHTINGS = ("literal", "exact")


@dataclass(frozen=True)
class FilterSpec:
    """FBP settings: ramp filter kind plus a fractional frequency cutoff,
    whether rows get the fan pre-weight, and the backprojection weighting
    (see :func:`fan_backproject`)."""

    kind: str = "ram-lak"
    cutoff: float = 1.0
    pre_weight: bool = True
    weighting: str = "literal"

    def __post_init__(self):
        if self.kind not in _FILTER_KINDS:
            raise InvalidArgumentError(f"unknown filter kind {self.kind!r}")
        if not (0.0 < self.cutoff <= 1.0):
            raise InvalidArgumentError("cutoff must lie in (0, 1]")
        if self.weighting not in _WEIGHTINGS:
            raise InvalidArgumentError(f"unknown weighting {self.weighting!r}")


def ramp_kernel(n: int, tau: float) -> np.ndarray:
    """Band-limited ramp kernel laid out on a circular grid of length n.

    Entry j holds the tap for signed lag j (wrapping: lags above n//2 are the
    negative lags). Taps follow the standard spatial form: 1/(4 tau^2) at lag
    zero, zero at even lags, -1/(pi^2 l^2 tau^2) at odd lags l. The residual
    truncation mean is subtracted so the DC response is exactly zero.
    """
    if n < 2:
        raise InvalidArgumentError("kernel needs at least 2 samples")
    if tau <= 0:
        raise InvalidArgumentError("detector spacing must be positive")
    lags = np.arange(n)
    lags = np.where(lags > n // 2, lags - n, lags)
    h = np.zeros(n)
    h[0] = 1.0 / (4.0 * tau * tau)
    odd = (np.abs(lags) % 2) == 1
    h[odd] = -1.0 / (np.pi**2 * lags[odd] ** 2 * tau**2)
    return h - h.mean()


def _frequency_window(n: int, tau: float, spec: FilterSpec) -> np.ndarray:
    freqs = np.fft.rfftfreq(n, d=tau)
    nyquist = 0.5 / tau
    frac = freqs / nyquist
    inside = frac <= spec.cutoff + 1e-12
    if spec.kind == "ram-lak":
        return inside.astype(np.float64)
    w = 0.5 * (1.0 + np.cos(np.pi * frac / spec.cutoff))
    return np.where(inside, w, 0.0)


def filter_projections(s: Sinogram, spec: FilterSpec = FilterSpec()) -> Sinogram:
    """Convolve every view row with the (windowed) ramp kernel.

    The convolution is circular with the kernel from :func:`ramp_kernel` at
    the virtual detector spacing, scaled by that spacing so the result
    approximates the continuous filtered projection.
    """
    g = s.geometry
    tau = g.virtual_detector_spacing
    n = s.n_detectors
    h = ramp_kernel(n, tau)
    response = np.fft.rfft(h) * _frequency_window(n, tau, spec)
    q = np.fft.irfft(np.fft.rfft(s.values, axis=1) * response[None, :], n=n, axis=1)
    return Sinogram(q * tau, g)


def fan_pre_weight(s: Sinogram) -> Sinogram:
    """Scale each sample by D / sqrt(D^2 + r^2), r on the virtual detector."""
    g = s.geometry
    d = g.source_to_center
    r = g.virtual_detector_coords
    w = d / np.sqrt(d * d + r * r)
    return Sinogram(s.values * w[None, :], g)


def fan_backproject(q: Sinogram, grid: ImageGrid,
                    spec: FilterSpec = FilterSpec()) -> ImageGrid:
    """Backproject filtered rows onto the grid with ``spec.weighting``:

      "literal" - weight 1/(D^2 + r^2), globally calibrated by D^2/2 so the
                  output carries attenuation units (the calibration is exact
                  in the narrow-fan limit).
      "exact"   - textbook flat-detector weight D^2 / (2 (D + s)^2) with s
                  the pixel offset along the view axis.
    Pixels whose r falls outside the detector contribute nothing, and the
    view sum is a Riemann sum with step (angular range) / n_views.

    Under the module's quarter-turn rule, r and the weight of base view v
    serve rows v + k·V/4 (k = 0..3), each added into accumulator k; the
    accumulators are summed turned back (``np.rot90(acc[k], -k)``, k
    ascending). The image differs from tracing every view at its own angle by
    at most 1e-13 of its peak value.
    """
    g = q.geometry
    d = g.source_to_center
    lo, hi = g.angular_range
    dtheta = (hi - lo) / g.n_views
    coords = g.virtual_detector_coords
    turns = quarter_turns(g, grid)
    n_base = g.n_views // turns
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    acc = np.zeros((turns, grid.ny, grid.nx))
    for v, theta in enumerate(g.view_angles[:n_base]):
        ct, st = np.cos(theta), np.sin(theta)
        t = gx * ct + gy * st
        denom = d - (gx * st - gy * ct)
        safe = denom > 1e-9 * d
        r = np.where(safe, d * t / np.where(safe, denom, 1.0), np.inf)
        if spec.weighting == "literal":
            # r is +inf off the safe side, where this weight is already 0
            w = (d * d / 2.0) / (d * d + r * r)
        else:
            w = np.where(safe, (d * d / 2.0) / denom**2, 0.0)
        for k in range(turns):
            row = np.interp(r, coords, q.values[v + k * n_base], left=0.0, right=0.0)
            acc[k] += row * w
    out = acc[0]
    for k in range(1, turns):
        out += np.rot90(acc[k], -k)
    return grid.with_values(out * dtheta)


def fbp_reconstruct(s: Sinogram, grid: ImageGrid,
                    spec: FilterSpec = FilterSpec()) -> ImageGrid:
    """Full chain: fan pre-weight (if ``spec.pre_weight``), ramp filtering,
    weighted backprojection."""
    work = fan_pre_weight(s) if spec.pre_weight else s
    return fan_backproject(filter_projections(work, spec), grid, spec)


def extract_active_views(s: Sinogram, m: SparseMask) -> Sinogram:
    """Keep only the mask's active rows, with a coarsened-view geometry.

    Requires n_views to be divisible by the stride so the kept views stay
    evenly spaced over the same angular range.
    """
    g = s.geometry
    if s.n_views != m.n_views:
        raise ShapeMismatchError("mask and sinogram disagree on n_views")
    if s.n_views % m.r != 0:
        raise InvalidArgumentError("n_views must be divisible by the mask stride")
    return Sinogram(s.values[m.active], replace(g, n_views=m.n_active))
