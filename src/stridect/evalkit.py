"""Phantoms and image quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ShapeMismatchError
from .geometry import ImageGrid


@dataclass(frozen=True)
class Ellipse:
    """Additive-density ellipse on the unit square [-1, 1]^2."""

    x0: float
    y0: float
    a: float
    b: float
    angle_deg: float
    density: float

    def mirrored(self) -> "Ellipse":
        return Ellipse(-self.x0, self.y0, self.a, self.b, -self.angle_deg, self.density)


# Modified head phantom: ten ellipses, densities chosen so the summed image
# stays inside [0, 1].
SHEPP_LOGAN_ELLIPSES = (
    Ellipse(0.0, 0.0, 0.69, 0.92, 0.0, 1.0),
    Ellipse(0.0, -0.0184, 0.6624, 0.874, 0.0, -0.8),
    Ellipse(0.22, 0.0, 0.11, 0.31, -18.0, -0.2),
    Ellipse(-0.22, 0.0, 0.16, 0.41, 18.0, -0.2),
    Ellipse(0.0, 0.35, 0.21, 0.25, 0.0, 0.1),
    Ellipse(0.0, 0.1, 0.046, 0.046, 0.0, 0.1),
    Ellipse(0.0, -0.1, 0.046, 0.046, 0.0, 0.1),
    Ellipse(-0.08, -0.605, 0.046, 0.023, 0.0, 0.1),
    Ellipse(0.0, -0.606, 0.023, 0.023, 0.0, 0.1),
    Ellipse(0.06, -0.605, 0.023, 0.046, 0.0, 0.1),
)


def rasterize_ellipses(ellipses, nx: int, ny: int) -> np.ndarray:
    """Sum ellipse densities over pixel centers of a [-1, 1]^2 grid."""
    xs = (np.arange(nx) - (nx - 1) / 2.0) / (nx / 2.0)
    ys = (np.arange(ny) - (ny - 1) / 2.0) / (ny / 2.0)
    gx, gy = np.meshgrid(xs, ys)
    out = np.zeros((ny, nx))
    for e in ellipses:
        phi = math.radians(e.angle_deg)
        c, s = math.cos(phi), math.sin(phi)
        dx = gx - e.x0
        dy = gy - e.y0
        u = dx * c + dy * s
        v = -dx * s + dy * c
        inside = (u / e.a) ** 2 + (v / e.b) ** 2 <= 1.0
        out[inside] += e.density
    return out


def shepp_logan(nx: int, ny: int, pixel_size: float = 1.0) -> ImageGrid:
    """Modified head phantom rasterized by pixel-center inclusion.

    Overlapping ellipse densities cancel exactly in some regions; the clip
    removes the resulting float dust so values stay in [0, 1].
    """
    if nx < 1 or ny < 1:
        raise InvalidArgumentError("phantom dimensions must be positive")
    values = np.clip(rasterize_ellipses(SHEPP_LOGAN_ELLIPSES, nx, ny), 0.0, 1.0)
    return ImageGrid(nx, ny, pixel_size, values)


def _pair(a, b):
    a = np.asarray(getattr(a, "values", a), dtype=np.float64)
    b = np.asarray(getattr(b, "values", b), dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def mse(ref, test) -> float:
    a, b = _pair(ref, test)
    return float(np.mean((a - b) ** 2))


def psnr(ref, test, data_range: float | None = None) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical inputs and -inf
    when the squared error overflows even as a fraction of the range."""
    a, b = _pair(ref, test)
    with np.errstate(over="ignore"):
        err = float(np.mean((a - b) ** 2))
    if err == 0.0:
        return math.inf
    if data_range is None:
        data_range = float(a.max() - a.min())
        if data_range == 0.0:
            data_range = 1.0
    if err == math.inf:
        # the error measured in units of the range
        with np.errstate(over="ignore", under="ignore"):
            return -10.0 * math.log10(float(np.mean(((a - b) / data_range) ** 2)))
    try:
        ratio = data_range**2 / err
    except OverflowError:
        ratio = math.inf
    if ratio == math.inf:
        # the squared range or the ratio overflows; the log domain does not
        return 20.0 * math.log10(data_range) - 10.0 * math.log10(err)
    return 10.0 * math.log10(ratio)


def _box_mean(x: np.ndarray, size: int) -> np.ndarray:
    """Mean over a ``size``-wide box along each axis in turn, reflecting at
    the border (the edge sample repeats). This is scipy's reflect-mode
    ``uniform_filter`` step for step: the first window is summed one slice
    at a time from 0.0, then each step adds the entering slice minus the
    leaving one and the running sums are divided by ``size``, so the two
    agree to the last bit."""
    before = size // 2
    for _ in range(x.ndim):
        p = np.pad(x, [(before, size - 1 - before)] + [(0, 0)] * (x.ndim - 1),
                   mode="symmetric")
        total = 0.0
        for k in range(size):
            total = total + p[k]
        run = np.cumsum(np.concatenate([total[None], p[size:] - p[:-size]]), axis=0)
        # the filtered axis moves last, so the next pass filters the next axis
        x = np.moveaxis(run / size, 0, -1)
    return x


def _ssim(a: np.ndarray, b: np.ndarray, data_range: float, window: int) -> float:
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_a = _box_mean(a, window)
    mu_b = _box_mean(b, window)
    e_aa = _box_mean(a * a, window)
    e_bb = _box_mean(b * b, window)
    e_ab = _box_mean(a * b, window)
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    pad = window // 2
    return float(s[pad:-pad or None, pad:-pad or None].mean())


def ssim(ref, test, data_range: float | None = None, window: int = 7) -> float:
    """Mean structural similarity with a uniform window.

    Local means/variances come from a ``window`` x ``window`` box mean that
    reproduces scipy's reflect-mode ``uniform_filter`` running sum bit for
    bit; the border of width window//2 is cropped before averaging so every
    retained window is fully supported. Where a square overflows, or the
    value is not finite, it is taken on the images divided by the range.
    """
    a, b = _pair(ref, test)
    if window < 1:
        raise InvalidArgumentError("SSIM window must be positive")
    if min(a.shape) <= 2 * (window // 2):
        # the crop of window//2 on each side must leave a pixel
        raise InvalidArgumentError("image too small for the SSIM window")
    if data_range is None:
        data_range = float(a.max() - a.min())
        if data_range == 0.0:
            data_range = 1.0
    try:
        with np.errstate(over="raise", invalid="ignore", divide="ignore"):
            value = _ssim(a, b, data_range, window)
    except (OverflowError, FloatingPointError):
        value = math.nan
    if not math.isfinite(value):
        # SSIM is unchanged when the images and the range scale together
        value = _ssim(a / data_range, b / data_range, 1.0, window)
    return value


def kl_divergence(p_samples, q_samples, n_bins: int = 64) -> float:
    """Histogram KL(p || q) over the joint value range, with smoothing."""
    p = np.asarray(getattr(p_samples, "values", p_samples)).ravel()
    q = np.asarray(getattr(q_samples, "values", q_samples)).ravel()
    if p.size == 0 or q.size == 0:
        raise InvalidArgumentError("empty sample set")
    lo = min(p.min(), q.min())
    hi = max(p.max(), q.max())
    if lo == hi:
        return 0.0
    hp, edges = np.histogram(p, bins=n_bins, range=(lo, hi))
    hq, _ = np.histogram(q, bins=n_bins, range=(lo, hi))
    pp = hp / hp.sum() + 1e-12
    qq = hq / hq.sum() + 1e-12
    pp /= pp.sum()
    qq /= qq.sum()
    return float(np.sum(pp * np.log(pp / qq)))
