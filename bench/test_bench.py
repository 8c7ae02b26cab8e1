"""Tests of the benchmark's own reference code: the exact fan-beam line
integrals it judges the projector by, and the self-time arithmetic of its
traced run."""

import math

import numpy as np
import pytest

import stridect as st
from analytic import ellipse_line_integrals, fan_rays, world_ellipses
from spans import Span, Tracer, self_times


def _ray_offsets(origins, dirs):
    """Signed distance of each ray from the rotation centre, and the angle
    of its normal (u_y, -u_x)."""
    normal = np.stack((dirs[..., 1], -dirs[..., 0]), axis=-1)
    return np.sum(origins * normal, axis=-1), np.arctan2(normal[..., 1], normal[..., 0])


def test_centred_disk_chords_are_closed_form():
    geom = st.desk_geometry(36, 64, 32)
    origins, dirs = fan_rays(geom)
    radius, density = 9.5, 0.7
    got = ellipse_line_integrals([(0.0, 0.0, radius, radius, 0.3, density)], origins, dirs)
    d, _ = _ray_offsets(origins, dirs)
    want = density * 2.0 * np.sqrt(np.maximum(radius**2 - d**2, 0.0))
    assert np.count_nonzero(want) > got.size // 3
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_rotated_off_centre_ellipse_matches_parallel_form():
    """Against the textbook projection of an ellipse along the ray's normal
    angle theta and offset t: 2 rho a b sqrt(s^2 - t'^2) / s^2 with
    s^2 = a^2 cos^2(theta - phi) + b^2 sin^2(theta - phi) and t' the offset
    measured from the ellipse centre."""
    geom = st.desk_geometry(45, 96, 48)
    origins, dirs = fan_rays(geom)
    x0, y0, a, b, phi, rho = 4.0, -6.5, 11.0, 5.0, math.radians(37.0), 1.3
    got = ellipse_line_integrals([(x0, y0, a, b, phi, rho)], origins, dirs)
    t, theta = _ray_offsets(origins, dirs)
    s2 = a**2 * np.cos(theta - phi) ** 2 + b**2 * np.sin(theta - phi) ** 2
    tc = t - (x0 * np.cos(theta) + y0 * np.sin(theta))
    want = 2.0 * rho * a * b * np.sqrt(np.maximum(s2 - tc**2, 0.0)) / s2
    assert np.count_nonzero(want) > 0
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_rays_follow_the_projector_convention():
    """An off-centre, rotated ellipse breaks every symmetry of the scan: a
    mirrored ellipse, reversed views or reversed detectors each give a
    relative error near 1, the right convention 3.9% (rasterization)."""
    nx = 48
    geom = st.desk_geometry(36, 96, nx)
    ellipse = st.Ellipse(0.3, -0.2, 0.45, 0.3, 25.0, 1.0)
    image = st.ImageGrid(nx, nx, 1.0, st.rasterize_ellipses([ellipse], nx, nx))
    exact = ellipse_line_integrals(world_ellipses([ellipse], nx), *fan_rays(geom))
    proj = st.forward_project(image, geom).values
    assert np.linalg.norm(proj - exact) / np.linalg.norm(exact) < 0.06


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, 0)


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 1.5, 2.0, 1),
        _span("b", 3.0, 5.0, 0),   # overlaps a by one second
        _span("c", 9.0, 12.0, 0),  # runs past the root's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.5, 0.5, 2.0, 3.0])


def test_tracer_nests_spans_and_restores_originals():
    class Holder:
        pass

    def leaf(x):
        return x + 1

    holder = Holder()
    holder.leaf = leaf
    holder.outer = lambda x: holder.leaf(x) * 2
    tracer = Tracer()
    tracer.patch(holder, "leaf", "leaf", lambda x: {"n": x})
    tracer.patch(holder, "outer", "outer")
    tracer.op = 7
    assert holder.outer(3) == 8
    tracer.op = None
    holder.outer(1)
    tracer.restore()
    assert holder.leaf is leaf
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", None, 7), ("leaf", 0, 7), ("outer", None, None), ("leaf", 2, None)]
    totals = tracer.op_totals()
    assert list(totals) == [7]
    assert totals[7]["leaf"]["calls"] == 1 and totals[7]["leaf"]["n"] == 3
    outer = totals[7]["outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - totals[7]["leaf"]["s"])
