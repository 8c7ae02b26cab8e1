"""Ray-driven projector: analytic oracles, adjointness, noise statistics."""

import dataclasses
import math

import numpy as np
import pytest

import stridect as st
from stridect.errors import InvalidArgumentError, ShapeMismatchError
import stridect.projector as projector
from stridect.geometry import served_views
from test_fbp import _reference_backproject


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


def _reference_forward(x, g, turns=1, mirror=False):
    """Per-view loop sampling every ray point with bounds-checked bilinear
    corners; the projector must reproduce it bit for bit.

    With ``turns`` 4, view v + k·V/4 is traced at view v's angle through the
    image turned k quarter turns, as the projector's quarter-turn rule does;
    with ``mirror`` too, a view whose mirror comes first is traced at the
    mirror's angle through the flipped, turned image, detectors reversed.
    ``turns`` 1 traces every view at its own angle."""
    step = x.pixel_size / 2.0
    out = np.empty((g.n_views, g.n_detectors))
    for v in range(g.n_views):
        base, k, flipped = _reference_base(v, g.n_views // turns, mirror)
        flat_img = _reference_image(x.values, k, flipped).ravel()
        parts, shape = _reference_parts(x, g, g.view_angles[base])
        acc = np.zeros(shape)
        for flat, w in parts:
            acc += flat_img[flat] * w
        row = acc.sum(axis=1) * step
        out[v] = row[::-1] if flipped else row
    return out


def _reference_adjoint(y, g, grid, turns=1, mirror=False):
    """Transpose of :func:`_reference_forward`: each turned or flipped image
    has its own accumulator, which sums its views by ascending base view, and
    the accumulators are added back turned first, then flipped."""
    step = grid.pixel_size / 2.0
    n_pix = grid.nx * grid.ny
    accs = np.zeros((2 if mirror else 1, turns, n_pix))
    bases = [_reference_base(v, g.n_views // turns, mirror) for v in range(g.n_views)]
    for v in sorted(range(g.n_views), key=lambda v: bases[v][0]):
        base, k, flipped = bases[v]
        parts, _ = _reference_parts(grid, g, g.view_angles[base])
        row = (y[v][::-1] if flipped else y[v])[:, None]
        for flat, w in parts:
            contrib = (w * row).ravel() * step
            accs[int(flipped), k] += np.bincount(flat.ravel(), weights=contrib,
                                                 minlength=n_pix)
    out = accs[0, 0].reshape(grid.ny, grid.nx)
    for flipped in range(accs.shape[0]):
        for k in range(1 - flipped, turns):
            a = accs[flipped, k].reshape(grid.ny, grid.nx)
            out += np.rot90(np.flipud(a) if flipped else a, -k)
    return out


def _reference_base(v, per_turn, mirror):
    """(base view, quarter turns, flipped) that trace view v = k·n + r, n being
    V over the turn count: base r on the image turned k times or, under the
    mirror (n = V/4) with r past n/2, base n − r on the image turned
    (k − 1) mod 4 times and flipped, since (V/2 − (n − r) + (k − 1)·n) mod V
    = v."""
    k, r = divmod(v, per_turn)
    if mirror and 2 * r > per_turn:
        return per_turn - r, (k - 1) % 4, True
    return r, k, False


def _reference_image(values, k, flipped):
    turned = np.rot90(values, k)
    return np.flipud(turned) if flipped else turned


def _symmetry(nx, ny, views):
    # every desk geometry scans the full circle from angle 0, so the mirror
    # holds wherever the quarter turns do
    turns = 4 if nx == ny and views % 4 == 0 else 1
    return turns, turns == 4


def _reference_frames(g, theta):
    # per-detector ray origins (the source) and unit directions for one view,
    # kept here so the reference does not run the frames under test
    c, s = np.cos(theta), np.sin(theta)
    e_t = np.array([c, s])
    e_s = np.array([-s, c])
    tau = g.detector_offsets
    src = -g.source_to_center * e_s
    det = g.center_to_detector * e_s[None, :] + tau[:, None] * e_t[None, :]
    d = det - src[None, :]
    u = d / np.linalg.norm(d, axis=1, keepdims=True)
    return np.broadcast_to(src, u.shape), u


def _reference_parts(grid, g, theta):
    px = grid.pixel_size
    radius = 0.5 * px * float(np.hypot(grid.nx, grid.ny)) + px
    step = px / 2.0
    origins, u = _reference_frames(g, theta)
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


# (nx, ny, pixel_size, views, detectors, nx the detector row is sized for);
# the square cases with a view count divisible by 4 take the quarter-turn and
# mirror rules
BYTE_CASES = [
    (24, 24, 1.0, 6, 8, 24),
    (33, 33, 1.0, 17, 40, 33),     # odd grid
    (21, 21, 0.7, 9, 50, 21),      # pixel_size < 1
    (20, 20, 1.9, 12, 30, 20),     # pixel_size > 1, quarter turns and mirror
    (16, 16, 1.0, 12, 64, 48),     # detector row three times wider, turns and mirror
    (18, 18, 1.0, 16, 28, 18),     # view V/8 is its own mirror
    (15, 9, 1.3, 10, 36, 15),      # rectangular grid
]


def _assert_per_angle_close(out, ref):
    # turned and mirrored views take their rays from the base view's cos/sin,
    # so they differ from rays at their own angle by rounding only
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("nx,ny,px,views,dets,span", BYTE_CASES)
def test_projection_bytes_match_reference_loop(nx, ny, px, views, dets, span):
    rng = np.random.default_rng(nx * 1000 + dets)
    g = st.desk_geometry(views, dets, span, pixel_size=px)
    x = st.ImageGrid(nx, ny, px, rng.normal(size=(ny, nx)))
    y = rng.normal(size=(views, dets))
    turns, mirror = _symmetry(nx, ny, views)
    fwd = st.forward_project(x, g).values
    assert fwd.tobytes() == _reference_forward(x, g, turns, mirror).tobytes()
    adj = st.adjoint_project(st.Sinogram(y, g), g, x).values
    assert adj.tobytes() == _reference_adjoint(y, g, x, turns, mirror).tobytes()
    if turns > 1:
        _assert_per_angle_close(fwd, _reference_forward(x, g))
        _assert_per_angle_close(adj, _reference_adjoint(y, g, x))


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
        assert fwd.tobytes() == _reference_forward(x, g, *_symmetry(n, n, 24)).tobytes()
        _assert_per_angle_close(fwd, _reference_forward(x, g))


# ---------------------------------------------------------------------------
# the quarter-turn rule


def test_turned_image_projects_to_view_rolled_sinogram():
    rng = np.random.default_rng(7)
    n, views = 20, 16
    g = st.desk_geometry(views, 30, n)
    x = st.ImageGrid(n, n, 1.0, rng.normal(size=(n, n)))
    turned = x.with_values(np.rot90(x.values))
    # the turned image at view v is the image at view v + V/4
    rolled = np.roll(st.forward_project(x, g).values, -(views // 4), axis=0)
    assert st.forward_project(turned, g).values.tobytes() == rolled.tobytes()


# ---------------------------------------------------------------------------
# the mirror rule


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("views", [12, 16])
def test_flipped_image_projects_to_mirrored_sinogram(n, views):
    rng = np.random.default_rng(n * 100 + views)
    g = st.desk_geometry(views, 30, n)
    x = st.ImageGrid(n, n, 1.0, rng.normal(size=(n, n)))
    assert served_views(g, x)[1] == 8
    flipped = x.with_values(np.flipud(x.values))
    # the flipped image at view v is the image at view (V/2 - v) mod V with
    # its detectors reversed
    mirror = (views // 2 - np.arange(views)) % views
    fwd = st.forward_project(x, g).values[mirror, ::-1]
    fwd_flipped = st.forward_project(flipped, g).values
    # views 0 and V/8 modulo V/4 are their own mirrors and are traced
    # unmirrored, so they agree with their mirror image by rounding only
    own = (2 * (np.arange(views) % (views // 4))) % (views // 4) == 0
    assert fwd_flipped[~own].tobytes() == fwd[~own].tobytes()
    _assert_per_angle_close(fwd_flipped[own], fwd[own])
    # the adjoint's counterpart: the mirrored sinogram backprojects to the
    # flipped image, up to the order its accumulators are added in
    y = rng.normal(size=(views, 30))
    adj = st.adjoint_project(st.Sinogram(y, g), g, x).values
    adj_mirrored = st.adjoint_project(st.Sinogram(y[mirror, ::-1], g), g, x).values
    _assert_per_angle_close(adj_mirrored, np.flipud(adj))


def test_mirror_generates_weights_up_to_an_eighth_turn(monkeypatch, geom180, grid64):
    seen = []
    weights = projector._view_weights
    monkeypatch.setattr(projector, "_view_weights",
                        lambda g, grid, n: seen.append(n) or weights(g, grid, n))
    s = st.forward_project(grid64, geom180)
    st.adjoint_project(s, geom180, grid64)
    # views 0..22 of 180 serve every view; without the mirror 45 would
    assert seen == [23, 23]


def test_full_scan_off_zero_keeps_quarter_turns_without_mirror():
    n, views = 16, 12
    lo = math.pi / 2
    assert (lo + 2.0 * math.pi) - lo == 2.0 * math.pi
    g = dataclasses.replace(st.desk_geometry(views, 24, n),
                            angular_range=(lo, lo + 2.0 * math.pi))
    rng = np.random.default_rng(10)
    x = st.ImageGrid(n, n, 1.0, rng.normal(size=(n, n)))
    y = rng.normal(size=(views, 24))
    assert served_views(g, x)[1] == 4
    fwd = st.forward_project(x, g).values
    assert fwd.tobytes() == _reference_forward(x, g, 4).tobytes()
    adj = st.adjoint_project(st.Sinogram(y, g), g, x).values
    assert adj.tobytes() == _reference_adjoint(y, g, x, 4).tobytes()
    _assert_per_angle_close(fwd, _reference_forward(x, g))
    _assert_per_angle_close(adj, _reference_adjoint(y, g, x))


def test_adjoint_identity_with_quarter_turns(geom180, grid64):
    rng = np.random.default_rng(8)
    assert served_views(geom180, grid64)[1] == 8
    x = rng.normal(size=(64, 64))
    s = rng.normal(size=(180, 256))
    ax = st.forward_project(grid64.with_values(x), geom180).values
    aty = st.adjoint_project(st.Sinogram(s, geom180), geom180, grid64).values
    defect = abs(np.sum(ax * s) - np.sum(x * aty))
    defect /= np.linalg.norm(ax) * np.linalg.norm(s)
    assert defect <= 1e-10


@pytest.mark.parametrize("nx,ny,views,span", [
    (16, 12, 12, (0.0, 2.0 * math.pi)),   # rectangular grid
    (16, 16, 10, (0.0, 2.0 * math.pi)),   # views not divisible by 4
    (16, 16, 12, (0.0, math.pi)),         # half scan
])
def test_quarter_turns_fall_back_to_one(nx, ny, views, span):
    base = st.desk_geometry(views, 24, 16)
    g = dataclasses.replace(base, angular_range=span)
    grid = st.ImageGrid(nx, ny, 1.0, np.zeros((ny, nx)))
    assert served_views(g, grid)[1] == 1
    # with one turn every view is traced at its own angle, bit for bit, by
    # the projector and by FBP's backprojection under either weighting
    rng = np.random.default_rng(9)
    x = grid.with_values(rng.normal(size=(ny, nx)))
    y = rng.normal(size=(views, 24))
    assert st.forward_project(x, g).values.tobytes() == _reference_forward(x, g).tobytes()
    adj = st.adjoint_project(st.Sinogram(y, g), g, grid).values
    assert adj.tobytes() == _reference_adjoint(y, g, grid).tobytes()
    q = st.filter_projections(st.Sinogram(y, g))
    for weighting in ("literal", "exact"):
        spec = st.FilterSpec(weighting=weighting)
        out = st.fan_backproject(q, grid, spec).values
        assert out.tobytes() == _reference_backproject(q, grid, spec).tobytes()


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
