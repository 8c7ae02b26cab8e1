"""Phantoms and image quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

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


def ssim(ref, test, data_range: float | None = None, window: int = 7) -> float:
    """Mean structural similarity with a uniform window.

    Local means/variances come from a ``window`` x ``window`` box filter;
    the border of width window//2 is cropped before averaging so every
    retained window is fully supported.
    """
    a, b = _pair(ref, test)
    if min(a.shape) < window:
        raise InvalidArgumentError("image smaller than the SSIM window")
    if data_range is None:
        data_range = float(a.max() - a.min())
        if data_range == 0.0:
            data_range = 1.0
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_a = uniform_filter(a, window)
    mu_b = uniform_filter(b, window)
    e_aa = uniform_filter(a * a, window)
    e_bb = uniform_filter(b * b, window)
    e_ab = uniform_filter(a * b, window)
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    pad = window // 2
    return float(s[pad:-pad or None, pad:-pad or None].mean())


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
