"""Ground truth for the benchmark, computed apart from the reconstruction chain.

Fan-beam rays are rebuilt from the scan description alone, and ellipse
phantoms are integrated along them in closed form, so the projector's
output can be compared with exact line integrals rather than with a stored
copy of its own earlier output.
"""

from __future__ import annotations

import math

import numpy as np

from stridect import Ellipse


def fan_rays(geom):
    """Source points and unit directions of every (view, detector) ray.

    At view angle theta the source sits at distance ``source_to_center``
    along -e_s and the flat detector line at ``center_to_detector`` along
    +e_s, with e_s = (-sin theta, cos theta); detector elements step along
    e_t = (cos theta, sin theta). Returns two (views, detectors, 2) arrays.
    """
    theta = geom.view_angles[:, None]
    tau = geom.detector_offsets[None, :]
    ct, st = np.cos(theta), np.sin(theta)
    src_x = geom.source_to_center * st
    src_y = -geom.source_to_center * ct
    det_x = -geom.center_to_detector * st + tau * ct
    det_y = geom.center_to_detector * ct + tau * st
    dx, dy = det_x - src_x, det_y - src_y
    norm = np.hypot(dx, dy)
    origins = np.stack(np.broadcast_arrays(src_x, src_y, dx)[:2], axis=-1)
    return origins, np.stack((dx / norm, dy / norm), axis=-1)


def world_ellipses(ellipses, nx, pixel_size=1.0):
    """Map unit-square ellipses (as rasterized by ``rasterize_ellipses``) to
    world units of an nx-wide square grid: rows of (x0, y0, a, b, phi, rho)."""
    s = nx / 2.0 * pixel_size
    return np.array([(e.x0 * s, e.y0 * s, e.a * s, e.b * s,
                      math.radians(e.angle_deg), e.density) for e in ellipses])


def ellipse_line_integrals(ellipses, origins, dirs):
    """Sum over ellipses of density times chord length along each ray.

    Each ray p(t) = o + t u is moved into the ellipse frame, where the
    chord is the gap between the two roots of the ellipse's quadratic.
    """
    ox, oy = origins[..., 0], origins[..., 1]
    ux, uy = dirs[..., 0], dirs[..., 1]
    out = np.zeros(ox.shape)
    for x0, y0, a, b, phi, rho in np.asarray(ellipses, dtype=np.float64):
        c, s = math.cos(phi), math.sin(phi)
        px, py = ox - x0, oy - y0
        pu, pv = px * c + py * s, -px * s + py * c
        du, dv = ux * c + uy * s, -ux * s + uy * c
        qa = (du / a) ** 2 + (dv / b) ** 2
        qb = 2.0 * (pu * du / a**2 + pv * dv / b**2)
        qc = (pu / a) ** 2 + (pv / b) ** 2 - 1.0
        disc = qb * qb - 4.0 * qa * qc
        out += rho * np.sqrt(np.maximum(disc, 0.0)) / qa
    return out


def random_ellipses(rng, n_inner=6):
    """Head-like random phantom on the unit square: a body ellipse plus
    ``n_inner`` smaller ellipses of positive or negative density inside it.

    """
    body_a, body_b = rng.uniform(0.6, 0.85, size=2)
    out = [Ellipse(0.0, 0.0, float(body_a), float(body_b),
                   float(rng.uniform(-30.0, 30.0)), 1.0)]
    for _ in range(n_inner):
        a, b = rng.uniform(0.08, 0.25, size=2)
        r = rng.uniform(0.0, 0.45) * min(body_a, body_b)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        out.append(Ellipse(float(r * math.cos(ang)), float(r * math.sin(ang)),
                           float(a), float(b), float(rng.uniform(0.0, 180.0)),
                           float(rng.uniform(-0.4, 0.4))))
    return out


def rel_l2(test, ref):
    test = np.asarray(test, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    return float(np.linalg.norm(test - ref) / np.linalg.norm(ref))


def psnr_db(ref, test):
    """PSNR against ``ref`` with the reference's value range as the peak."""
    ref = np.asarray(ref, dtype=np.float64)
    err = float(np.mean((np.asarray(test, dtype=np.float64) - ref) ** 2))
    peak = float(ref.max() - ref.min())
    return 10.0 * math.log10(peak * peak / err)
