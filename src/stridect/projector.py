"""Ray-driven fan-beam projection and its exact adjoint.

The package models only the fan beam of :class:`FanBeamGeometry`: every ray
runs from the source point to one detector element. Rays are sampled at
half-pixel steps with bilinear interpolation. Both directions draw their
weights from one generator, so ``adjoint_project`` scatters exactly the
weights ``forward_project`` gathers. Samples that cannot touch the grid are
dropped: they would contribute exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ShapeMismatchError
from .geometry import FanBeamGeometry, ImageGrid, Sinogram, SparseMask, apply_mask


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian measurement noise of standard deviation sigma,
    drawn from ``seed``; sigma 0 means a noiseless measurement."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.sigma >= 0:  # also rejects nan
            raise InvalidArgumentError("noise sigma must be >= 0")


def _ray_frames(g: FanBeamGeometry, theta: float):
    """Per-detector ray origins (the source) and unit directions for one
    view."""
    ct, st = np.cos(theta), np.sin(theta)
    e_t = np.array([ct, st])
    e_s = np.array([-st, ct])
    tau = g.detector_offsets
    src = -g.source_to_center * e_s
    det = g.center_to_detector * e_s[None, :] + tau[:, None] * e_t[None, :]
    d = det - src[None, :]
    u = d / np.linalg.norm(d, axis=1, keepdims=True)
    return np.broadcast_to(src, u.shape), u


def _view_weights(g: FanBeamGeometry, grid: ImageGrid):
    """Per view: the (detectors, samples) mask of ray samples that can touch
    the grid (-1 < f < n in pixel coordinates f, on both axes) and the four
    bilinear (flat index, weight) corner pairs of the kept samples in C
    order. Indices address the grid padded by a one-pixel border of zeros,
    which holds every corner of a kept sample that lies off the grid.
    """
    px, nx, ny = grid.pixel_size, grid.nx, grid.ny
    step = px / 2.0
    radius = 0.5 * px * float(np.hypot(nx, ny)) + px
    n_s = int(np.ceil(2.0 * radius / step))
    offs = (np.arange(n_s) + 0.5) * step - radius
    for theta in g.view_angles:
        origins, u = _ray_frames(g, theta)
        t = -np.einsum("dk,dk->d", origins, u)[:, None] + offs[None, :]
        # in place: at this size a fresh temporary costs more than its op
        fx, fy = t * u[:, 0:1], np.multiply(t, u[:, 1:2], out=t)
        for f, k, n in ((fx, 0, nx), (fy, 1, ny)):
            f += origins[:, k:k + 1]
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
    """Line integrals of ``x`` for every (view, detector) ray."""
    step = x.pixel_size / 2.0
    flat_img = np.pad(x.values, 1).ravel()
    out = np.empty((g.n_views, g.n_detectors))
    for v, (keep, corners) in enumerate(_view_weights(g, x)):
        acc = np.zeros(np.count_nonzero(keep))
        for flat, w in corners:
            acc += flat_img[flat] * w
        samples = np.zeros(keep.shape)
        samples[keep] = acc
        # summing whole rows keeps numpy's pairwise order over all samples
        out[v] = samples.sum(axis=1) * step
    return Sinogram(out, g)


def adjoint_project(s: Sinogram, g: FanBeamGeometry, grid: ImageGrid) -> ImageGrid:
    """Exact transpose of :func:`forward_project` onto ``grid``.

    Accumulates per-view partial images and reduces them in ascending view
    order, so the result is deterministic.
    """
    if s.values.shape != (g.n_views, g.n_detectors):
        raise ShapeMismatchError("sinogram shape does not match geometry")
    step = grid.pixel_size / 2.0
    n_pix = (grid.nx + 2) * (grid.ny + 2)
    acc = np.zeros(n_pix)
    for v, (keep, corners) in enumerate(_view_weights(g, grid)):
        row = np.broadcast_to(s.values[v][:, None], keep.shape)[keep]
        for flat, w in corners:
            acc += np.bincount(flat, weights=w * row * step, minlength=n_pix)
    return grid.with_values(acc.reshape(grid.ny + 2, grid.nx + 2)[1:-1, 1:-1])


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
