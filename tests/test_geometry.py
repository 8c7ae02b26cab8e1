"""Mask algebra, value containers and geometry serialization."""

import dataclasses
import math

import numpy as np
import pytest

import stridect as st
from stridect.errors import InvalidArgumentError, ShapeMismatchError
from stridect.geometry import from_images, served_views, to_images


# ---------------------------------------------------------------------------
# sparse masks


def test_mask_every_twelfth_of_720():
    m = st.make_sparse_mask(720, 12)
    assert m.n_active == 60
    assert np.array_equal(np.flatnonzero(m.active), np.arange(0, 720, 12))


def test_mask_full():
    m = st.make_sparse_mask(720, 1)
    assert m.n_active == 720
    assert m.active.all()


def test_mask_eight_views_stride_two():
    m = st.make_sparse_mask(8, 2)
    assert np.array_equal(np.flatnonzero(m.active), [0, 2, 4, 6])
    assert not m.active[[1, 3, 5, 7]].any()


def test_mask_validation():
    with pytest.raises(InvalidArgumentError):
        st.make_sparse_mask(10, 0)
    with pytest.raises(InvalidArgumentError):
        st.make_sparse_mask(10, 11)
    with pytest.raises(InvalidArgumentError):
        st.make_sparse_mask(0, 1)
    with pytest.raises(TypeError):  # the stride fixes the active rows
        st.SparseMask(6, 2, active=np.ones(6, bool))


def test_mask_count_matches_ceil():
    for n in (1, 2, 3, 5, 8, 97, 256, 720, 1023, 1024):
        for r in range(1, n + 1):
            assert st.make_sparse_mask(n, r).n_active == math.ceil(n / r)


def test_mask_active_readonly():
    m = st.make_sparse_mask(8, 2)
    with pytest.raises(ValueError):
        m.active[0] = False


# ---------------------------------------------------------------------------
# apply_mask


def _sino(values, geometry=None):
    values = np.asarray(values, dtype=np.float64)
    if geometry is None:
        geometry = st.desk_geometry(*values.shape, 16)
    return st.Sinogram(values, geometry)


def test_apply_mask_small():
    s = _sino([[1.0, 2.0], [3.0, 4.0]])
    out = st.apply_mask(s, st.make_sparse_mask(2, 2))
    assert np.array_equal(out.values, [[1.0, 2.0], [0.0, 0.0]])


def test_apply_mask_full_identity():
    rng = np.random.default_rng(0)
    s = _sino(rng.normal(size=(9, 5)))
    out = st.apply_mask(s, st.make_sparse_mask(9, 1))
    assert np.array_equal(out.values, s.values)


def test_apply_mask_idempotent():
    rng = np.random.default_rng(1)
    s = _sino(rng.normal(size=(12, 7)))
    m = st.make_sparse_mask(12, 3)
    once = st.apply_mask(s, m)
    twice = st.apply_mask(once, m)
    assert np.array_equal(once.values, twice.values)


def test_apply_mask_linear():
    rng = np.random.default_rng(2)
    m = st.make_sparse_mask(10, 4)
    for _ in range(5):
        s1 = rng.normal(size=(10, 6))
        s2 = rng.normal(size=(10, 6))
        a, b = rng.normal(size=2)
        lhs = st.apply_mask(_sino(a * s1 + b * s2), m).values
        rhs = a * st.apply_mask(_sino(s1), m).values + b * st.apply_mask(_sino(s2), m).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_apply_mask_view_mismatch():
    with pytest.raises(ShapeMismatchError):
        st.apply_mask(_sino(np.zeros((5, 3))), st.make_sparse_mask(6, 2))


def test_apply_mask_keeps_geometry():
    g = st.desk_geometry(6, 4, 16)
    s = _sino(np.ones((6, 4)), g)
    assert st.apply_mask(s, st.make_sparse_mask(6, 2)).geometry is g


def test_mask_rows_plain_array():
    vals = np.arange(12.0).reshape(4, 3)
    active = np.array([True, False, True, False])
    out = st.mask_rows(vals, active)
    assert np.array_equal(out[0], vals[0])
    assert not out[1].any()
    with pytest.raises(ShapeMismatchError):
        st.mask_rows(vals, np.ones(5, bool))
    assert np.array_equal(st.mask_rows(vals, active.tolist()), out)


_ROW_FLAG_USERS = {
    "mask_rows": st.mask_rows,
    "data_consistency": lambda v, f: st.data_consistency(v, v, f),
    "apply_sparse_guidance": lambda v, f: st.apply_sparse_guidance(v, v, f, 0.5),
    "coarse_generate": lambda v, f: st.coarse_generate(
        v, f, st.AnalyticGaussianDenoiser(0.0, 1.0, st.linear_schedule(T=20)),
        st.linear_schedule(T=20), st.PipelineConfig(ddim_steps=4), np.random.default_rng(0)),
    "fit_linear_alignment": lambda v, f: st.fit_linear_alignment(v, v, f),
    "interpolate_views": st.interpolate_views,
}


@pytest.mark.parametrize("name", sorted(_ROW_FLAG_USERS))
@pytest.mark.parametrize("flags", [[True, False] * 4, np.ones((10, 4), bool),
                                   np.ones(12, bool)], ids=["short-list", "2-D", "long"])
def test_row_flags_must_match_the_rows(name, flags):
    # every function taking one flag per view checks it through row_flags,
    # naming both shapes
    values = np.arange(40.0).reshape(10, 4)
    with pytest.raises(ShapeMismatchError, match=r"\(10, 4\)"):
        _ROW_FLAG_USERS[name](values, flags)


# ---------------------------------------------------------------------------
# fan-beam geometry


def test_geometry_kv_roundtrip():
    g = st.desk_geometry(90, 128, 64)
    g2 = st.FanBeamGeometry.from_kv(g.to_kv())
    assert g2.source_to_center == g.source_to_center
    assert g2.center_to_detector == g.center_to_detector
    assert g2.detector_width == g.detector_width
    assert g2.angular_range == g.angular_range
    assert (g2.n_views, g2.n_detectors) == (g.n_views, g.n_detectors)
    # blank lines and # lines are skipped
    assert st.FanBeamGeometry.from_kv("# scanner\n\n" + g.to_kv() + "  \n# end\n") == g


def _old_to_kv(g):
    """The sidecar text as written when each key was spelled out here."""
    lo, hi = g.angular_range
    return (f"sod_mm={g.source_to_center!r}\ncdd_mm={g.center_to_detector!r}\n"
            f"n_views={g.n_views}\nn_detectors={g.n_detectors}\n"
            f"det_width_mm={g.detector_width!r}\n"
            f"angle_start_rad={lo!r}\nangle_end_rad={hi!r}\n")


@pytest.mark.parametrize("g", [
    st.desk_geometry(12, 16, 16),
    st.desk_geometry(180, 256, 64, pixel_size=0.5),
    st.FanBeamGeometry(60.7, 62.9, 7, 5, 63.1),
    st.FanBeamGeometry(3.25, 4.0, 5, 6, 7.5, angular_range=(-1.0, 2.0)),
    st.FanBeamGeometry(1e-3, 1e5, 1, 1, 0.1, angular_range=(0.0, math.pi)),
])
def test_to_kv_text_unchanged_for_python_number_geometries(g):
    assert g.to_kv() == _old_to_kv(g)
    assert st.FanBeamGeometry.from_kv(g.to_kv()) == g


def test_geometry_kv_errors():
    g = st.desk_geometry(6, 4, 16)
    text = g.to_kv()
    with pytest.raises(InvalidArgumentError):
        st.FanBeamGeometry.from_kv(text.replace("sod_mm", "sad_mm"))
    with pytest.raises(InvalidArgumentError):
        st.FanBeamGeometry.from_kv(text + "extra=1\n")
    with pytest.raises(InvalidArgumentError):
        st.FanBeamGeometry.from_kv(text + "not a pair\n")
    missing = "\n".join(text.splitlines()[1:])
    with pytest.raises(InvalidArgumentError):
        st.FanBeamGeometry.from_kv(missing)


@pytest.mark.parametrize("key,value", [("sod_mm", "abc46.17"), ("n_views", "6.5"),
                                       ("angle_end_rad", "")])
def test_geometry_kv_non_numeric_value_names_key(key, value):
    text = st.desk_geometry(6, 4, 16).to_kv()
    lines = [f"{key}={value}" if ln.startswith(key + "=") else ln
             for ln in text.splitlines()]
    with pytest.raises(InvalidArgumentError, match=key):
        st.FanBeamGeometry.from_kv("\n".join(lines))


def test_geometry_validation():
    with pytest.raises(InvalidArgumentError):
        st.FanBeamGeometry(-1.0, 1.0, 4, 4, 1.0)
    with pytest.raises(InvalidArgumentError):
        st.FanBeamGeometry(1.0, 1.0, 4, 4, -1.0)
    with pytest.raises(InvalidArgumentError):
        st.FanBeamGeometry(1.0, 1.0, 0, 4, 1.0)
    with pytest.raises(InvalidArgumentError):
        st.FanBeamGeometry(1.0, 1.0, 4, 4, 1.0, angular_range=(1.0, 1.0))
    # each distance must be finite as well as positive, and the error names it
    for pos, name in ((0, "source_to_center"), (1, "center_to_detector"),
                      (4, "detector_width")):
        for bad in (math.inf, -math.inf, math.nan, 0.0):
            args = [1.0, 1.0, 4, 4, 1.0]
            args[pos] = bad
            with pytest.raises(InvalidArgumentError, match=name):
                st.FanBeamGeometry(*args)


def test_view_angles_exclude_endpoint():
    g = st.desk_geometry(720, 8, 16)
    ang = g.view_angles
    assert ang.shape == (720,)
    assert ang[0] == 0.0
    assert ang[-1] < 2.0 * math.pi


def test_detector_offsets_centered():
    g = st.desk_geometry(4, 33, 16)
    off = g.detector_offsets
    assert abs(off.mean()) < 1e-12
    assert off[16] == 0.0
    assert np.allclose(np.diff(off), g.detector_spacing)


def test_virtual_detector_scaling():
    g = st.desk_geometry(4, 8, 16)
    assert g.magnification == pytest.approx(2.0)
    assert np.allclose(g.virtual_detector_coords, g.detector_offsets / 2.0)


def test_desk_geometry_ratios_and_fov():
    for nx, px in ((64, 1.0), (256, 1.0), (64, 0.5)):
        g = st.desk_geometry(10, 16, nx, pixel_size=px)
        assert g.center_to_detector == pytest.approx(g.source_to_center)
        assert g.detector_width / g.source_to_center == pytest.approx(413.0 / 400.0)
        half_fan = math.atan((g.detector_width / 2.0) /
                             (g.source_to_center + g.center_to_detector))
        fov = g.source_to_center * math.sin(half_fan)
        half_diag = math.sqrt(2.0) * nx * px / 2.0
        assert fov == pytest.approx(1.02 * half_diag, rel=1e-9)


@pytest.mark.parametrize("nx,ny,views,span,n_images", [
    (64, 64, 180, (0.0, 2.0 * math.pi), 8),         # desk scan: turns and mirror
    (16, 16, 24, (0.5, 0.5 + 2.0 * math.pi), 4),    # full scan off 0: turns only
    (16, 16, 12, (0.0, math.pi), 1),                # half scan
    (16, 12, 12, (0.0, 2.0 * math.pi), 1),          # non-square grid
], ids=["desk", "full-off-zero", "half", "non-square"])
def test_served_views_table(nx, ny, views, span, n_images):
    g = dataclasses.replace(st.desk_geometry(views, 24, nx), angular_range=span)
    grid = st.ImageGrid(nx, ny, 1.0, np.zeros((ny, nx)))
    served, n = served_views(g, grid)
    assert n == n_images
    assert sorted(view for entries in served for _, view, _ in entries) == list(range(views))
    for entries in served:
        # FBP adds a base view's rows into images 0, 1, ... in this order
        assert [m for m, _, _ in entries] == list(range(len(entries)))
        for m, _, columns in entries:
            assert columns == (slice(None, None, -1) if m >= 4 else slice(None))
    a = np.random.default_rng(views).integers(-9, 10, size=(ny, nx)).astype(float)
    assert from_images(to_images(a, n)).tobytes() == (n * a).tobytes()


# ---------------------------------------------------------------------------
# containers


def test_image_grid_axes_and_validation():
    img = st.ImageGrid(4, 3, 0.5, np.zeros((3, 4)))
    assert abs(img.xs.mean()) < 1e-12
    assert np.allclose(np.diff(img.xs), 0.5)
    assert img.ys.shape == (3,)
    with pytest.raises(ShapeMismatchError):
        st.ImageGrid(4, 3, 0.5, np.zeros((4, 3)))
    with pytest.raises(InvalidArgumentError):
        st.ImageGrid(4, 3, 0.5, np.full((3, 4), np.nan))
    # nan passed the old `<= 0` test, and the chain then wrote an all-zero image
    for pixel_size in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="pixel_size"):
            st.ImageGrid(4, 3, pixel_size, np.zeros((3, 4)))


def test_image_grid_values_readonly():
    img = st.ImageGrid(2, 2, 1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        img.values[0, 0] = 1.0
    img2 = img.with_values(np.ones((2, 2)))
    assert img2.pixel_size == img.pixel_size
    assert img2.values[0, 0] == 1.0


def test_sinogram_validation():
    g = st.desk_geometry(6, 4, 16)
    with pytest.raises(ShapeMismatchError):
        st.Sinogram(np.zeros(5), g)
    with pytest.raises(InvalidArgumentError):
        st.Sinogram(np.full((6, 4), np.inf), g)
    # every sinogram carries the geometry that acquired it
    for geometry in (None, g.to_kv(), (6, 4)):
        with pytest.raises(InvalidArgumentError, match="FanBeamGeometry"):
            st.Sinogram(np.zeros((6, 4)), geometry)
    with pytest.raises(TypeError):
        st.Sinogram(np.zeros((6, 4)))
    with pytest.raises(ShapeMismatchError):
        st.Sinogram(np.zeros((5, 4)), g)
    s = st.Sinogram(np.zeros((6, 4)), g)
    assert (s.n_views, s.n_detectors) == (6, 4)
    with pytest.raises(ValueError):
        s.values[0, 0] = 1.0
    assert s.with_values(np.ones((6, 4))).geometry is g
