"""Fan-beam filtered backprojection for a flat detector.

Projection rows are pre-weighted for the fan geometry, convolved (circularly)
with a discrete ramp kernel, then backprojected with the per-pixel detector
coordinate r = D (x cos t + y sin t) / (D - (x sin t - y cos t)), D being the
source-to-center distance and r living on the virtual detector line through
the rotation center.

Backprojection computes r, its weight and one interpolation index per base
view of the symmetry table :func:`~stridect.geometry.served_views`, and each
serves every row the table lists for it, interpolated by np.interp's own
rule through a small table of row values and slopes, so every row's samples
equal np.interp's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, ShapeMismatchError
from .geometry import ImageGrid, Sinogram, SparseMask, from_images, served_views

_FILTER_KINDS = ("ram-lak", "hann")
# samples (rows x pixels) interpolated at once: a desk-scale base view's eight
# rows of 64² pixels take one pass, and larger grids go in pieces this size
# rather than in (8, pixels) temporaries
_GATHER = 1 << 15
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


def _knot_index(r, coords):
    """One interpolation index for every row sampled on ``coords``: per
    point of the flat array r, the column j and offset dx at which
    :func:`_interp_rows` evaluates np.interp(r, coords, row, left=0.0,
    right=0.0) for any row, and the mask of points that lie on a knot.

    ``coords`` must be evenly spaced up to rounding and strictly increasing.
    j satisfies coords[j] <= r < coords[j + 1]: it is guessed from the even
    spacing, then moved by one where a comparison with the knots themselves
    says so. A point on the last knot takes j = D - 1, and a point off the
    detector (+inf included) the zero column D with dx = 1.
    """
    n = coords.size
    inside = (r >= coords[0]) & (r <= coords[-1])
    u = np.where(inside, r, coords[0])
    per_knot = (n - 1) / (coords[-1] - coords[0]) if n > 1 else 0.0
    j = ((u - coords[0]) * per_knot).astype(np.intp)
    np.minimum(j, max(n - 2, 0), out=j)
    knots = np.append(coords, np.inf)
    j -= knots[j] > u
    j += knots[1:][j] <= u
    dx = u - coords[j]
    outside = ~inside
    j[outside] = n
    dx[outside] = 1.0
    return j, dx, dx == 0.0


def _knot_table(rows, coords):
    """The values and slopes np.interp uses between the knots ``coords`` for
    every row of the (rows, D) array ``rows``: two (rows, D + 1) arrays fp
    and slope, slope[:, j] = (fp[:, j + 1] - fp[:, j]) / (coords[j + 1] -
    coords[j]), whose last column is the zero column."""
    n = coords.size
    fp = np.zeros((rows.shape[0], n + 1))
    fp[:, :n] = rows
    slope = np.zeros_like(fp)
    with np.errstate(over="ignore"):  # like np.interp, silent on overflow
        slope[:, :n - 1] = np.diff(rows, axis=1) / np.diff(coords)
    return fp, slope


def _interp_rows(table, index):
    """np.interp(r, coords, row, left=0.0, right=0.0) for every row of a
    :func:`_knot_table` at the points of an index from :func:`_knot_index`,
    bit for bit, as one (rows, points) array.

    This is np.interp's own rule: slope[j] * dx + fp[j], and fp[j] itself
    on a knot.
    """
    fp, slope = table
    j, dx, on_knot = index
    out = np.take(slope, j, axis=1)
    with np.errstate(invalid="ignore"):  # an infinite slope meets dx = 0 on a knot
        out *= dx
    out += np.take(fp, j, axis=1)
    if on_knot.any():
        out[:, on_knot] = fp[:, j[on_knot]]
    return out


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

    Base views and the rows they serve come from
    :func:`~stridect.geometry.served_views`. r, the weight and one
    interpolation index of base view v serve every row v serves, each added
    into its image, and :func:`~stridect.geometry.from_images` adds the
    images back. A base view that serves one row interpolates it with
    np.interp.
    """
    g = q.geometry
    d = g.source_to_center
    lo, hi = g.angular_range
    dtheta = (hi - lo) / g.n_views
    coords = g.virtual_detector_coords
    served, n_images = served_views(g, grid)
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    acc = np.zeros((n_images, grid.ny, grid.nx))
    flat = acc.reshape(n_images, -1)
    for entries, theta in zip(served, g.view_angles):
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
        if len(entries) == 1:
            acc[0] += np.interp(r, coords, q.values[entries[0][1]], left=0.0, right=0.0) * w
            continue
        rows = np.stack([q.values[view, columns] for _, view, columns in entries])
        table = _knot_table(rows, coords)
        index = _knot_index(r.ravel(), coords)
        w = w.ravel()
        step = max(_GATHER // len(entries), 1)
        for start in range(0, w.size, step):
            part = slice(start, start + step)
            vals = _interp_rows(table, [a[part] for a in index])
            vals *= w[part]
            # a base view's entries are images 0, 1, ... in order
            flat[:len(entries), part] += vals
    return grid.with_values(from_images(acc) * dtheta)


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
