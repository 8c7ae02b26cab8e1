"""Ray-driven fan-beam projection and its exact adjoint.

The package models only the fan beam of :class:`FanBeamGeometry`: every ray
runs from the source point to one detector element. Rays are sampled at
half-pixel steps with bilinear interpolation. Both directions draw their
weights from one generator, so ``adjoint_project`` scatters exactly the
weights ``forward_project`` gathers. Samples that cannot touch the grid are
dropped: they would contribute exact zeros.

Under the quarter-turn rule of :func:`~stridect.geometry.quarter_turns`
(a square grid scanned over exactly 2π with a view count divisible by 4),
view v + k·V/4 is view v applied to the grid turned by k quarter turns
(``np.rot90``); the padded grid's zero border turns onto itself. Weights are
then generated for the first V/4 views only and each serves four views; on
any other geometry every view has its own. A turned view's rays come from
its base view's angle, so they differ from rays traced at its own angle by
rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ShapeMismatchError
from .geometry import (FanBeamGeometry, ImageGrid, Sinogram, SparseMask, apply_mask,
                       quarter_turns)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian measurement noise of standard deviation sigma,
    drawn from ``seed``; sigma 0 means a noiseless measurement."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.sigma >= 0:  # also rejects nan
            raise InvalidArgumentError("noise sigma must be >= 0")


def _ray_frames(g: FanBeamGeometry, n_views: int):
    """Source points (views, 2) and unit ray directions (views, detectors, 2)
    of the first ``n_views`` views."""
    theta = g.view_angles[:n_views]
    ct, st = np.cos(theta), np.sin(theta)
    e_t = np.stack([ct, st], axis=1)[:, None, :]
    e_s = np.stack([-st, ct], axis=1)
    src = -g.source_to_center * e_s
    # in place: one (views, detectors, 2) array holds detector, ray and direction
    d = g.detector_offsets[:, None] * e_t
    d += g.center_to_detector * e_s[:, None, :]
    d -= src[:, None, :]
    d /= np.linalg.norm(d, axis=2, keepdims=True)
    return src, d


def _view_weights(g: FanBeamGeometry, grid: ImageGrid, n_views: int):
    """Per view of the first ``n_views``: the (detectors, samples) mask of ray
    samples that can touch the grid (-1 < f < n in pixel coordinates f, on
    both axes) and the four bilinear (flat index, weight) corner pairs of the
    kept samples in C order. Indices address the grid padded by a one-pixel
    border of zeros, which holds every corner of a kept sample that lies off
    the grid.
    """
    px, nx, ny = grid.pixel_size, grid.nx, grid.ny
    step = px / 2.0
    radius = 0.5 * px * float(np.hypot(nx, ny)) + px
    n_s = int(np.ceil(2.0 * radius / step))
    offs = (np.arange(n_s) + 0.5) * step - radius
    for src, u in zip(*_ray_frames(g, n_views)):
        t = -(u[:, 0] * src[0] + u[:, 1] * src[1])[:, None] + offs[None, :]
        # in place: at this size a fresh temporary costs more than its op
        fx, fy = t * u[:, 0:1], np.multiply(t, u[:, 1:2], out=t)
        for f, o, n in ((fx, src[0], nx), (fy, src[1], ny)):
            f += o
            f /= px
            f += (n - 1) / 2.0
        keep = (fx > -1) & (fx < nx) & (fy > -1) & (fy < ny)
        wx, wy = fx[keep], fy[keep]
        ix, iy = np.floor(wx), np.floor(wy)
        wx -= ix
        wy -= iy
        base = (iy.astype(np.int64) + 1) * (nx + 2) + ix.astype(np.int64) + 1
        ax, ay = 1 - wx, 1 - wy
        yield keep, [
            (base, ax * ay),
            (base + 1, np.multiply(wx, ay, out=ay)),
            (base + (nx + 2), np.multiply(ax, wy, out=ax)),
            (base + (nx + 3), np.multiply(wx, wy, out=wx)),
        ]


def forward_project(x: ImageGrid, g: FanBeamGeometry) -> Sinogram:
    """Line integrals of ``x`` for every (view, detector) ray.

    Under the module's quarter-turn rule, view v + k·V/4 gathers view v's
    weights from the padded image turned k times.
    """
    step = x.pixel_size / 2.0
    q = quarter_turns(g, x)
    n_base = g.n_views // q
    pad = np.pad(x.values, 1)
    turned = [np.rot90(pad, k).ravel() for k in range(q)]
    out = np.empty((g.n_views, g.n_detectors))
    for v, (keep, corners) in enumerate(_view_weights(g, x, n_base)):
        samples = np.zeros(keep.shape)
        for k, flat_img in enumerate(turned):
            acc = np.zeros(np.count_nonzero(keep))
            for flat, w in corners:
                acc += flat_img[flat] * w
            samples[keep] = acc
            # summing whole rows keeps numpy's pairwise order over all samples
            out[v + k * n_base] = samples.sum(axis=1) * step
    return Sinogram(out, g)


def adjoint_project(s: Sinogram, g: FanBeamGeometry, grid: ImageGrid) -> ImageGrid:
    """Exact transpose of :func:`forward_project` onto ``grid``.

    ``g`` must equal the sinogram's own geometry. Under the module's
    quarter-turn rule, view v + k·V/4 scatters view v's weights into the k-th
    of four padded accumulators; each accumulator sums its views in ascending
    order, and the accumulators are added turned back, k ascending. The
    result is deterministic.
    """
    if g != s.geometry:
        raise ShapeMismatchError("geometry differs from the sinogram's own")
    step = grid.pixel_size / 2.0
    q = quarter_turns(g, grid)
    n_base = g.n_views // q
    shape = (grid.ny + 2, grid.nx + 2)
    n_pix = shape[0] * shape[1]
    acc = np.zeros((q, n_pix))
    for v, (keep, corners) in enumerate(_view_weights(g, grid, n_base)):
        counts = keep.sum(axis=1)
        for k in range(q):
            row = np.repeat(s.values[v + k * n_base], counts)
            for flat, w in corners:
                acc[k] += np.bincount(flat, weights=w * row * step, minlength=n_pix)
    out = acc[0].reshape(shape)
    for k in range(1, q):
        out += np.rot90(acc[k].reshape(shape), -k)
    return grid.with_values(out[1:-1, 1:-1])


def simulate_measurement(x: ImageGrid, g: FanBeamGeometry,
                         m: SparseMask | None = None,
                         noise: NoiseSpec = NoiseSpec()) -> Sinogram:
    """Project, add noise, then zero the masked-out view rows (m=None keeps
    every view)."""
    y = forward_project(x, g)
    if noise.sigma > 0:
        rng = np.random.default_rng(noise.seed)
        y = y.with_values(y.values + rng.normal(0.0, noise.sigma, y.values.shape))
    return apply_mask(y, m) if m is not None else y
