"""Filtered backprojection: kernel structure, weighting oracle, regression."""

from dataclasses import replace

import numpy as np
import pytest

import stridect as st
from stridect.errors import InvalidArgumentError, ShapeMismatchError
from stridect.fbp import (_interp_rows, _knot_index, _knot_table, fan_backproject,
                          fan_pre_weight, ramp_kernel)
from stridect.geometry import served_views


def test_ramp_kernel_structure():
    n, tau = 16, 0.5
    h = ramp_kernel(n, tau)
    # mean subtraction cancels in differences against an even (zero) tap
    assert h[0] - h[2] == pytest.approx(1.0 / (4.0 * tau * tau), rel=1e-12)
    assert h[1] - h[2] == pytest.approx(-1.0 / (np.pi**2 * tau**2), rel=1e-12)
    assert h[3] - h[2] == pytest.approx(-1.0 / (np.pi**2 * 9.0 * tau**2), rel=1e-12)
    assert h[2] == h[4] == h[6]
    assert np.array_equal(h[1:], h[1:][::-1])  # circular symmetry
    assert abs(h.sum()) <= 1e-12 * h[0]


def test_ramp_kernel_validation():
    with pytest.raises(InvalidArgumentError):
        ramp_kernel(1, 1.0)
    with pytest.raises(InvalidArgumentError):
        ramp_kernel(8, 0.0)


def test_filter_spec_validation():
    with pytest.raises(InvalidArgumentError):
        st.FilterSpec(kind="shepp")
    with pytest.raises(InvalidArgumentError):
        st.FilterSpec(cutoff=0.0)
    with pytest.raises(InvalidArgumentError):
        st.FilterSpec(cutoff=1.5)


def test_impulse_row_returns_kernel():
    n = 32
    # magnification 2 halves the 2-unit detector pitch: unit virtual spacing
    g = st.FanBeamGeometry(1.0, 1.0, 3, n, 2.0 * n)
    assert g.virtual_detector_spacing == 1.0
    vals = np.zeros((3, n))
    vals[1, 0] = 1.0
    out = st.filter_projections(st.Sinogram(vals, g)).values
    assert np.max(np.abs(out[0])) <= 1e-12
    assert np.allclose(out[1], ramp_kernel(n, 1.0), atol=1e-12)


def test_impulse_row_scales_with_spacing():
    g = st.desk_geometry(1, 24, 16)
    vals = np.zeros((1, 24))
    vals[0, 5] = 1.0
    out = st.filter_projections(st.Sinogram(vals, g)).values[0]
    tau = g.virtual_detector_spacing
    expect = np.roll(ramp_kernel(24, tau), 5) * tau
    assert np.allclose(out, expect, atol=1e-12 * np.max(np.abs(expect)))


def test_constant_row_killed():
    c = 2.0
    g = st.desk_geometry(2, 64, 16)
    out = st.filter_projections(st.Sinogram(np.full((2, 64), c), g)).values
    assert abs(out.mean()) <= 1e-6 * c
    assert np.max(np.abs(out)) <= 1e-10 * c


def test_hann_window_attenuates():
    rng = np.random.default_rng(13)
    s = st.Sinogram(rng.normal(size=(4, 64)), st.desk_geometry(4, 64, 16))
    ram = st.filter_projections(s, st.FilterSpec()).values
    hann = st.filter_projections(s, st.FilterSpec(kind="hann")).values
    assert np.linalg.norm(hann) < np.linalg.norm(ram)


def test_pre_weight_profile():
    g = st.desk_geometry(2, 33, 16)
    s = st.Sinogram(np.ones((2, 33)), g)
    w = fan_pre_weight(s).values[0]
    assert w[16] == 1.0
    assert np.all(w <= 1.0)
    assert np.all(np.diff(w[:17]) > 0)


@pytest.mark.parametrize("weighting", ["literal", "exact"])
def test_backprojection_single_view_oracle(weighting):
    # one view at angle zero; row holding the identity profile makes the
    # interpolated sample equal the per-pixel detector coordinate
    g = st.desk_geometry(1, 65, 16)
    coords = g.virtual_detector_coords
    q = st.Sinogram(coords[None, :].copy(), g)
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    out = fan_backproject(q, grid, st.FilterSpec(weighting=weighting)).values
    d = g.source_to_center
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    r = d * gx / (d + gy)
    if weighting == "literal":
        w = (d * d / 2.0) / (d * d + r * r)
    else:
        w = (d * d / 2.0) / (d + gy) ** 2
    expect = r * w * 2.0 * np.pi
    inside = np.abs(r) <= 0.999 * coords.max()
    assert np.allclose(out[inside], expect[inside], rtol=1e-9, atol=1e-12)


def _reference_backproject(q, grid, spec, turns=1, mirror=False):
    """Per-view loop: every view computes its own detector coordinate and
    weight and interpolates its row with np.interp; ``fan_backproject`` must
    reproduce it bit for bit.

    With ``turns`` 4, view v + k·V/4 is traced at view v's angle into the k-th
    accumulator. With ``mirror`` as well, the base views are 0..V/8, and view
    (V/2 − v + k·V/4) mod V (for 0 < v < V/8) is traced at view v's angle with
    its row reversed into accumulator 4 + k. Accumulator k is added as
    rot90(acc, −k) and accumulator 4 + k as rot90(flipud(acc), −k), in
    ascending order. ``turns`` 1 traces every view at its own angle."""
    g = q.geometry
    d = g.source_to_center
    lo, hi = g.angular_range
    n_base = g.n_views // turns
    slots = []  # (view, base view, accumulator), base views ascending
    for base in range(n_base // 2 + 1 if mirror else n_base):
        for k in range(turns):
            slots.append((base + k * n_base, base, k))
            if mirror and 0 < 2 * base < n_base:
                slots.append(((2 * n_base - base + k * n_base) % g.n_views, base, 4 + k))
    coords = g.virtual_detector_coords
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    accs = np.zeros((8 if mirror else turns, grid.ny, grid.nx))
    for v, base, slot in slots:
        theta = g.view_angles[base]
        ct, st_ = np.cos(theta), np.sin(theta)
        t = gx * ct + gy * st_
        denom = d - (gx * st_ - gy * ct)
        safe = denom > 1e-9 * d
        r = np.where(safe, d * t / np.where(safe, denom, 1.0), np.inf)
        row = q.values[v, ::-1] if slot >= 4 else q.values[v]
        row = np.interp(r, coords, row, left=0.0, right=0.0)
        if spec.weighting == "literal":
            w = (d * d / 2.0) / (d * d + r * r)
            w = np.where(np.isfinite(r), w, 0.0)
        else:
            w = np.where(safe, (d * d / 2.0) / denom**2, 0.0)
        accs[slot] += row * w
    out = accs[0]
    for slot in range(1, len(accs)):
        acc = np.flipud(accs[slot]) if slot >= 4 else accs[slot]
        out += np.rot90(acc, -(slot % 4))
    return out * ((hi - lo) / g.n_views)


@pytest.mark.parametrize("weighting", ["literal", "exact"])
@pytest.mark.parametrize("n,views,dets", [
    (16, 12, 24),
    (17, 24, 40),    # odd grid: the centre pixel turns onto itself
    (64, 180, 256),  # desk scan
    (72, 24, 64),    # over 4096 pixels: a base view's rows go in two passes
])
def test_quarter_turn_backprojection(n, views, dets, weighting):
    rng = np.random.default_rng(n + views)
    g = st.desk_geometry(views, dets, n)
    q = st.filter_projections(st.Sinogram(rng.normal(size=(views, dets)), g))
    grid = st.ImageGrid(n, n, 1.0, np.zeros((n, n)))
    assert served_views(g, grid)[1] == 8
    spec = st.FilterSpec(weighting=weighting)
    out = fan_backproject(q, grid, spec).values
    assert out.tobytes() == _reference_backproject(q, grid, spec, 4, mirror=True).tobytes()
    # turned and mirrored views take r and the weight from the base view's
    # cos/sin, so they differ from views at their own angle by rounding only
    ref = _reference_backproject(q, grid, spec)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_sparse_baseline_takes_quarter_turns_on_desk_scan(sino180, grid64):
    # 180 views at stride 3 keep 60, a multiple of 4, over the full circle
    # from angle 0, so the mirror applies too
    m = st.SparseMask(180, 3)
    sub = st.extract_active_views(sino180, m)
    assert served_views(sub.geometry, grid64)[1] == 8
    spec = st.FilterSpec()
    q = st.filter_projections(fan_pre_weight(sub), spec)
    out = st.sparse_fbp_baseline(sino180, m, grid64, spec).values
    assert out.tobytes() == _reference_backproject(q, grid64, spec, 4, mirror=True).tobytes()
    ref = _reference_backproject(q, grid64, spec)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("weighting", ["literal", "exact"])
@pytest.mark.parametrize("angular_range,turns", [
    ((0.5, 0.5 + 2.0 * np.pi), 4),  # quarter turns without the mirror
    ((0.0, np.pi), 1),              # no symmetry: every view serves itself
])
def test_backprojection_keeps_its_bytes_off_the_mirror_rule(angular_range, turns,
                                                            weighting):
    g = replace(st.desk_geometry(24, 40, 16), angular_range=angular_range)
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    assert served_views(g, grid)[1] == turns
    q = st.filter_projections(st.Sinogram(np.random.default_rng(3).normal(size=(24, 40)), g))
    spec = st.FilterSpec(weighting=weighting)
    out = fan_backproject(q, grid, spec).values
    assert out.tobytes() == _reference_backproject(q, grid, spec, turns).tobytes()


def test_backprojection_behind_the_source():
    # pixels of 6 units put the grid's corners behind the source on the
    # diagonal views, where r is +inf and the pixel gets nothing
    g = st.desk_geometry(12, 24, 16)
    grid = st.ImageGrid(16, 16, 6.0, np.zeros((16, 16)))
    assert grid.xs[-1] * np.sqrt(2.0) > g.source_to_center
    q = st.filter_projections(st.Sinogram(np.random.default_rng(4).normal(size=(12, 24)), g))
    for weighting in ("literal", "exact"):
        spec = st.FilterSpec(weighting=weighting)
        out = fan_backproject(q, grid, spec).values
        assert out.tobytes() == _reference_backproject(q, grid, spec, 4, mirror=True).tobytes()


def _interp_cases():
    """Detector coordinates of several widths, points on and beside every
    knot, just off either end, far off, at ±inf and in between, and rows
    holding ±0.0."""
    rng = np.random.default_rng(22)
    for dets in (1, 2, 5, 24, 255, 256):
        coords = st.desk_geometry(4, dets, 16).virtual_detector_coords
        r = np.concatenate([
            coords, np.nextafter(coords, -np.inf), np.nextafter(coords, np.inf),
            rng.uniform(coords[0] - 1.0, coords[-1] + 1.0, 500),
            [coords[0] - 1e-300, -1e300, 1e300, np.inf, -np.inf, 0.0, -0.0],
        ])
        rows = rng.normal(size=(6, dets))
        rows[1] = 0.0
        rows[2] = -0.0
        rows[3, ::2] = -0.0
        rows[4, 1::3] = 0.0
        yield coords, rng.permutation(r), rows


def test_shared_interpolation_matches_np_interp_bytes():
    for coords, r, rows in _interp_cases():
        out = _interp_rows(_knot_table(rows, coords), _knot_index(r, coords))
        for row, got in zip(rows, out):
            expect = np.interp(r, coords, row, left=0.0, right=0.0)
            assert got.tobytes() == expect.tobytes(), len(coords)


def test_shared_interpolation_matches_np_interp_where_slopes_overflow():
    # neighbour differences of ±1e308 rows overflow to ±inf, which a
    # Sinogram accepts; the shared rule then gives np.interp's infinities,
    # and a knot still gives the knot's own value
    coords = st.desk_geometry(4, 7, 16).virtual_detector_coords
    rows = np.array([[1e308, -1e308, 1e308, -0.0, -1e308, 1e308, 1e308],
                     [-1e308, 1e308, -1e308, 1e308, 0.0, -1e308, -1e308]])
    r = np.concatenate([coords, (coords[1:] + coords[:-1]) / 2.0, [np.inf]])
    out = _interp_rows(_knot_table(rows, coords), _knot_index(r, coords))
    assert np.isinf(out).any()
    for row, got in zip(rows, out):
        expect = np.interp(r, coords, row, left=0.0, right=0.0)
        assert got.tobytes() == expect.tobytes()


def test_backprojection_validation():
    with pytest.raises(InvalidArgumentError, match="weighting"):
        st.FilterSpec(weighting="cosine")


def test_zero_sinogram_reconstructs_zero():
    g = st.desk_geometry(6, 16, 16)
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    out = st.fbp_reconstruct(st.Sinogram(np.zeros((6, 16)), g), grid)
    assert not out.values.any()


def test_fbp_linearity():
    rng = np.random.default_rng(14)
    g = st.desk_geometry(12, 24, 16)
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    s1 = rng.normal(size=(12, 24))
    s2 = rng.normal(size=(12, 24))
    a = st.fbp_reconstruct(st.Sinogram(s1 + s2, g), grid).values
    b = (st.fbp_reconstruct(st.Sinogram(s1, g), grid).values
         + st.fbp_reconstruct(st.Sinogram(s2, g), grid).values)
    scale = np.max(np.abs(a)) or 1.0
    assert np.max(np.abs(a - b)) <= 1e-6 * scale


def test_extract_active_views(sino720):
    m = st.make_sparse_mask(720, 8)
    sub = st.extract_active_views(sino720, m)
    assert sub.geometry.n_views == 90
    assert sub.geometry.angular_range == sino720.geometry.angular_range
    assert np.array_equal(sub.values, sino720.values[m.active])
    with pytest.raises(InvalidArgumentError):
        st.extract_active_views(sino720, st.make_sparse_mask(720, 7))
    with pytest.raises(ShapeMismatchError):
        st.extract_active_views(sino720, st.make_sparse_mask(360, 8))


def _recon_psnr(sino, m, phantom, grid):
    sub = st.extract_active_views(sino, m) if m is not None else sino
    img = st.fbp_reconstruct(sub, grid)
    return st.psnr(phantom.values, img.values)


def test_full_view_reconstruction_quality(phantom256, sino720):
    grid = st.ImageGrid(256, 256, 1.0, np.zeros((256, 256)))
    img = st.fbp_reconstruct(sino720, grid)
    assert st.psnr(phantom256.values, img.values) >= 24.8
    assert st.ssim(phantom256.values, img.values) >= 0.45


def test_view_starved_reconstruction_degrades(phantom256, sino720):
    grid = st.ImageGrid(256, 256, 1.0, np.zeros((256, 256)))
    full = _recon_psnr(sino720, None, phantom256, grid)
    p90 = _recon_psnr(sino720, st.make_sparse_mask(720, 8), phantom256, grid)
    p72 = _recon_psnr(sino720, st.make_sparse_mask(720, 10), phantom256, grid)
    p60 = _recon_psnr(sino720, st.make_sparse_mask(720, 12), phantom256, grid)
    assert full - p60 >= 5.0
    assert p90 >= p72 >= p60
