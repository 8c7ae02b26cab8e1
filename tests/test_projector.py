"""Ray-driven projector: analytic oracles, adjointness, noise statistics."""

import math

import numpy as np
import pytest

import stridect as st
import stridect.projector as projector
from stridect.errors import InvalidArgumentError, ShapeMismatchError


def _disk(nx, radius, pixel_size=1.0):
    c = (np.arange(nx) - (nx - 1) / 2.0) * pixel_size
    gx, gy = np.meshgrid(c, c)
    return st.ImageGrid(nx, nx, pixel_size, (gx**2 + gy**2 <= radius**2).astype(float))


def test_zero_image_projects_to_zero():
    g = st.desk_geometry(12, 16, 16)
    img = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    assert not st.forward_project(img, g).values.any()


def test_disk_center_ray_equals_diameter():
    # odd detector count puts one element exactly on the central ray
    radius = 10.0
    img = _disk(64, radius)
    g = st.desk_geometry(4, 129, 64)
    s = st.forward_project(img, g)
    center = s.values[:, 64]
    assert np.all(np.abs(center - 2.0 * radius) <= 0.01 * 2.0 * radius)


def test_fan_disk_chords():
    # the ray to detector offset tau passes the centre at distance
    # d = sod |tau| / hypot(sod + cdd, tau)
    radius = 12.0
    img = _disk(64, radius)
    g = st.desk_geometry(2, 129, 64)
    s = st.forward_project(img, g)
    tau = g.detector_offsets
    sod = g.source_to_center
    d = sod * np.abs(tau) / np.hypot(sod + g.center_to_detector, tau)
    inside = d <= 0.75 * radius
    chord = 2.0 * np.sqrt(radius**2 - d[inside] ** 2)
    assert inside.sum() >= 20
    assert np.all(np.abs(s.values[:, inside] - chord) <= 0.05 * 2.0 * radius)


def test_forward_linearity():
    rng = np.random.default_rng(3)
    g = st.desk_geometry(10, 24, 32)
    x1 = rng.normal(size=(32, 32))
    x2 = rng.normal(size=(32, 32))
    grid = lambda v: st.ImageGrid(32, 32, 1.0, v)
    s12 = st.forward_project(grid(x1 + x2), g).values
    s1 = st.forward_project(grid(x1), g).values
    s2 = st.forward_project(grid(x2), g).values
    scale = np.max(np.abs(s12)) or 1.0
    assert np.max(np.abs(s12 - s1 - s2)) <= 1e-6 * scale


def test_nonnegative_image_gives_nonnegative_sinogram(phantom64, geom180):
    s = st.forward_project(phantom64, geom180)
    assert s.values.min() >= 0.0


def test_rotational_consistency_for_disk():
    img = _disk(48, 12.0)
    g = st.desk_geometry(24, 64, 48)
    s = st.forward_project(img, g)
    ref = s.values[0]
    l2 = np.linalg.norm(s.values - ref[None, :], axis=1) / np.linalg.norm(ref)
    assert np.max(l2) <= 0.05
    sums = s.values.sum(axis=1)
    assert (sums.max() - sums.min()) <= 5e-3 * sums.mean()


def test_adjoint_identity_small():
    rng = np.random.default_rng(4)
    g = st.desk_geometry(20, 24, 24)
    grid = st.ImageGrid(24, 24, 1.0, np.zeros((24, 24)))
    for _ in range(3):
        x = rng.normal(size=(24, 24))
        s = rng.normal(size=(20, 24))
        ax = st.forward_project(st.ImageGrid(24, 24, 1.0, x), g).values
        aty = st.adjoint_project(st.Sinogram(s, g), g, grid).values
        defect = abs(np.sum(ax * s) - np.sum(x * aty))
        defect /= np.linalg.norm(ax) * np.linalg.norm(s)
        assert defect <= 1e-4


def test_adjoint_zero_and_shape_check():
    g = st.desk_geometry(6, 8, 16)
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    out = st.adjoint_project(st.Sinogram(np.zeros((6, 8)), g), g, grid)
    assert not out.values.any()
    with pytest.raises(ShapeMismatchError):
        st.adjoint_project(st.Sinogram(np.zeros((5, 8)), st.desk_geometry(5, 8, 16)),
                           g, grid)


def test_adjoint_rejects_a_geometry_other_than_the_sinograms():
    # an equal-shaped geometry with other rays would backproject the rows
    # along the wrong lines
    g = st.desk_geometry(6, 8, 16)
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    s = st.Sinogram(np.ones((6, 8)), g)
    with pytest.raises(ShapeMismatchError, match="geometry"):
        st.adjoint_project(s, st.FanBeamGeometry(50, 50, 6, 8, 60), grid)
    # an equal geometry built apart is the same geometry
    same = st.adjoint_project(s, st.desk_geometry(6, 8, 16), grid)
    assert np.array_equal(same.values, st.adjoint_project(s, g, grid).values)


def test_single_ray_support():
    g = st.desk_geometry(8, 17, 16)
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    v0, d0 = 3, 5
    s = np.zeros((8, 17))
    s[v0, d0] = 1.0
    img = st.adjoint_project(st.Sinogram(s, g), g, grid).values
    theta = g.view_angles[v0]
    e_t = np.array([math.cos(theta), math.sin(theta)])
    e_s = np.array([-math.sin(theta), math.cos(theta)])
    src = -g.source_to_center * e_s
    det = g.center_to_detector * e_s + g.detector_offsets[d0] * e_t
    u = (det - src) / np.linalg.norm(det - src)
    iy, ix = np.nonzero(img)
    pts = np.stack([grid.xs[ix], grid.ys[iy]], axis=1)
    rel = pts - src
    dist = np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0])
    assert iy.size > 0
    assert dist.max() <= 2.0 * grid.pixel_size


# ---------------------------------------------------------------------------
# byte equality with the plain per-view ray loop


def _reference_forward(x, g):
    """Per-view loop sampling every ray point with bounds-checked bilinear
    corners; the projector must reproduce it bit for bit."""
    step = x.pixel_size / 2.0
    flat_img = x.values.ravel()
    out = np.empty((g.n_views, g.n_detectors))
    for v, theta in enumerate(g.view_angles):
        parts, shape = _reference_parts(x, g, theta)
        acc = np.zeros(shape)
        for flat, w in parts:
            acc += flat_img[flat] * w
        out[v] = acc.sum(axis=1) * step
    return out


def _reference_adjoint(y, g, grid):
    step = grid.pixel_size / 2.0
    n_pix = grid.nx * grid.ny
    acc = np.zeros(n_pix)
    for v, theta in enumerate(g.view_angles):
        parts, _ = _reference_parts(grid, g, theta)
        row = y[v][:, None]
        for flat, w in parts:
            contrib = (w * row).ravel() * step
            acc += np.bincount(flat.ravel(), weights=contrib, minlength=n_pix)
    return acc.reshape(grid.ny, grid.nx)


def _reference_parts(grid, g, theta):
    px = grid.pixel_size
    radius = 0.5 * px * float(np.hypot(grid.nx, grid.ny)) + px
    step = px / 2.0
    origins, u = projector._ray_frames(g, theta)
    n_s = int(np.ceil(2.0 * radius / step))
    offs = (np.arange(n_s) + 0.5) * step - radius
    t = -np.einsum("dk,dk->d", origins, u)[:, None] + offs[None, :]
    pos = origins[:, None, :] + t[:, :, None] * u[:, None, :]
    fx = pos[..., 0] / px + (grid.nx - 1) / 2.0
    fy = pos[..., 1] / px + (grid.ny - 1) / 2.0
    ix = np.floor(fx).astype(np.int64)
    iy = np.floor(fy).astype(np.int64)
    wx = fx - ix
    wy = fy - iy
    parts = []
    for dx, dy, w in ((0, 0, (1 - wx) * (1 - wy)), (1, 0, wx * (1 - wy)),
                      (0, 1, (1 - wx) * wy), (1, 1, wx * wy)):
        cx, cy = ix + dx, iy + dy
        inb = (cx >= 0) & (cx < grid.nx) & (cy >= 0) & (cy < grid.ny)
        parts.append((np.where(inb, cy * grid.nx + cx, 0), w * inb))
    return parts, fx.shape


# (nx, ny, pixel_size, views, detectors, nx the detector row is sized for)
BYTE_CASES = [
    (24, 24, 1.0, 6, 8, 24),
    (33, 33, 1.0, 17, 40, 33),     # odd grid
    (21, 21, 0.7, 9, 50, 21),      # pixel_size < 1
    (20, 20, 1.9, 12, 30, 20),     # pixel_size > 1
    (16, 16, 1.0, 12, 64, 48),     # detector row three times wider than the grid
    (15, 9, 1.3, 10, 36, 15),      # rectangular grid
]


@pytest.mark.parametrize("nx,ny,px,views,dets,span", BYTE_CASES)
def test_projection_bytes_match_reference_loop(nx, ny, px, views, dets, span):
    rng = np.random.default_rng(nx * 1000 + dets)
    g = st.desk_geometry(views, dets, span, pixel_size=px)
    x = st.ImageGrid(nx, ny, px, rng.normal(size=(ny, nx)))
    y = rng.normal(size=(views, dets))
    fwd = st.forward_project(x, g).values
    assert fwd.tobytes() == _reference_forward(x, g).tobytes()
    adj = st.adjoint_project(st.Sinogram(y, g), g, x).values
    assert adj.tobytes() == _reference_adjoint(y, g, x).tobytes()


def test_edge_pixel_projection_bytes_match_reference_loop():
    # the kept-sample cut and the zero border sit next to these pixels
    n = 17
    g = st.desk_geometry(24, 48, n)
    m = n // 2
    for iy, ix in ((0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1),
                   (0, m), (m, 0), (n - 1, m), (m, n - 1)):
        v = np.zeros((n, n))
        v[iy, ix] = 1.0
        x = st.ImageGrid(n, n, 1.0, v)
        fwd = st.forward_project(x, g).values
        assert fwd.any()
        assert fwd.tobytes() == _reference_forward(x, g).tobytes()


# ---------------------------------------------------------------------------
# measurement simulation


def test_simulate_noiseless_full_equals_forward(phantom64, geom180):
    a = st.forward_project(phantom64, geom180)
    b = st.simulate_measurement(phantom64, geom180)
    assert np.array_equal(a.values, b.values)


def test_simulate_masks_rows(phantom64, geom180):
    m = st.make_sparse_mask(180, 3)
    y = st.simulate_measurement(phantom64, geom180, m=m)
    assert not y.values[~m.active].any()
    assert y.values[m.active].any()


def test_simulate_noise_deterministic(phantom64, geom180):
    noise = st.NoiseSpec(sigma=0.1, seed=11)
    a = st.simulate_measurement(phantom64, geom180, noise=noise)
    b = st.simulate_measurement(phantom64, geom180, noise=noise)
    assert np.array_equal(a.values, b.values)


def test_simulate_noise_statistics():
    img = st.shepp_logan(16, 16)
    g = st.desk_geometry(180, 600, 16)
    clean = st.forward_project(img, g)
    noisy = st.simulate_measurement(img, g, noise=st.NoiseSpec(0.1, 5))
    resid = noisy.values - clean.values
    assert resid.size >= 1e5
    assert abs(resid.std() - 0.1) <= 0.002


def test_noise_spec_validation():
    for sigma in (-0.5, float("nan")):
        with pytest.raises(InvalidArgumentError):
            st.NoiseSpec(sigma=sigma)
