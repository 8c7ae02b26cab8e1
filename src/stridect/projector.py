"""Ray-driven fan-beam projection and its exact adjoint.

The package models only the fan beam of :class:`FanBeamGeometry`: every ray
runs from the source point to one detector element. Rays are sampled at
half-pixel steps with bilinear interpolation. Both directions draw their
weights from one generator, so ``adjoint_project`` scatters exactly the
weights ``forward_project`` gathers. Samples that cannot touch the grid are
dropped: they would contribute exact zeros.

A view's weights serve every view the symmetry table
:func:`~stridect.geometry.served_views` lists for it, each through its
turned or flipped image of the padded grid, whose zero border turns onto
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ShapeMismatchError, require_seed
from .geometry import (FanBeamGeometry, ImageGrid, Sinogram, SparseMask, apply_mask,
                       from_images, served_views, to_images)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian measurement noise of standard deviation sigma,
    drawn from ``seed``; sigma 0 means a noiseless measurement. A sigma
    that is negative, nan or infinite, or a negative seed, is rejected."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:  # also rejects nan
            raise InvalidArgumentError(f"noise sigma must be finite and >= 0, got {self.sigma}")
        require_seed(self.seed, "noise seed")


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

    Each base view gathers its weights from the padded image of every view
    it serves.
    """
    step = x.pixel_size / 2.0
    served, n_images = served_views(g, x)
    images = [im.ravel() for im in to_images(np.pad(x.values, 1), n_images)]
    out = np.empty((g.n_views, g.n_detectors))
    for (keep, corners), entries in zip(_view_weights(g, x, len(served)), served):
        samples = np.zeros(keep.shape)
        for m, view, columns in entries:
            acc = np.zeros(np.count_nonzero(keep))
            for flat, w in corners:
                acc += images[m][flat] * w
            samples[keep] = acc
            # summing whole rows keeps numpy's pairwise order over all samples
            out[view] = (samples.sum(axis=1) * step)[columns]
    return Sinogram(out, g)


def adjoint_project(s: Sinogram, g: FanBeamGeometry, grid: ImageGrid) -> ImageGrid:
    """Exact transpose of :func:`forward_project` onto ``grid``.

    ``g`` must equal the sinogram's own geometry. Each base view scatters its
    weights, times the row of every view it serves, into that view's padded
    image; each image sums its base views in ascending order, and
    :func:`~stridect.geometry.from_images` adds the images back. The result
    is deterministic.
    """
    if g != s.geometry:
        raise ShapeMismatchError("geometry differs from the sinogram's own")
    step = grid.pixel_size / 2.0
    served, n_images = served_views(g, grid)
    shape = (grid.ny + 2, grid.nx + 2)
    n_pix = shape[0] * shape[1]
    acc = np.zeros((n_images, n_pix))
    for (keep, corners), entries in zip(_view_weights(g, grid, len(served)), served):
        counts = keep.sum(axis=1)
        for m, view, columns in entries:
            row = np.repeat(s.values[view, columns], counts)
            for flat, w in corners:
                acc[m] += np.bincount(flat, weights=w * row * step, minlength=n_pix)
    out = from_images(acc.reshape((n_images,) + shape))
    return grid.with_values(out[1:-1, 1:-1])


def simulate_measurement(x: ImageGrid, g: FanBeamGeometry,
                         m: SparseMask | None = None,
                         noise: NoiseSpec = NoiseSpec()) -> Sinogram:
    """Project, add noise, then zero the masked-out view rows (m=None keeps
    every view). A sigma so large that the noisy measurement is not finite
    is rejected."""
    y = forward_project(x, g)
    if noise.sigma > 0:
        rng = np.random.default_rng(noise.seed)
        noisy = y.values + rng.normal(0.0, noise.sigma, y.values.shape)
        if not np.all(np.isfinite(noisy)):
            raise InvalidArgumentError(f"noise sigma {noise.sigma} overflows: "
                                       "the noisy measurement is not finite")
        y = y.with_values(noisy)
    return apply_mask(y, m) if m is not None else y
