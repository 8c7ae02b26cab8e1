"""Scan geometry, image/sinogram containers and row-sparse view masks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidArgumentError, ShapeMismatchError

# Reference scanner: 40 cm source-to-center, 40 cm center-to-detector,
# 41.3 cm flat detector. Desk-scale problems keep these ratios.
_REF_SOD_MM = 400.0
_REF_CDD_MM = 400.0
_REF_DET_WIDTH_MM = 413.0

# the .geom sidecar's keys and value types, in the order of
# FanBeamGeometry's arguments
_GEOM_KEYS = {
    "sod_mm": float,
    "cdd_mm": float,
    "n_views": int,
    "n_detectors": int,
    "det_width_mm": float,
    "angle_start_rad": float,
    "angle_end_rad": float,
}


def _readonly(a):
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FanBeamGeometry:
    """Fan-beam scan description with a flat detector. Two geometries are
    equal when every field is.

    The source rotates at distance ``source_to_center`` from the rotation
    center; the detector line sits ``center_to_detector`` beyond the center,
    perpendicular to the source-center ray. View angles are evenly spaced
    over ``angular_range`` with the endpoint excluded.
    """

    source_to_center: float
    center_to_detector: float
    n_views: int
    n_detectors: int
    detector_width: float
    angular_range: tuple[float, float] = (0.0, 2.0 * math.pi)

    def __post_init__(self):
        for name, key in (("source_to_center", "sod_mm"), ("center_to_detector", "cdd_mm"),
                          ("detector_width", "det_width_mm")):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidArgumentError(f"{name} ({key}) must be finite and > 0, got {v!r}")
        if self.n_views < 1 or self.n_detectors < 1:
            raise InvalidArgumentError("n_views and n_detectors must be >= 1")
        lo, hi = self.angular_range
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise InvalidArgumentError("angular_range must be a finite increasing pair")

    @property
    def view_angles(self):
        lo, hi = self.angular_range
        return np.linspace(lo, hi, self.n_views, endpoint=False)

    @property
    def detector_spacing(self):
        return self.detector_width / self.n_detectors

    @property
    def detector_offsets(self):
        """Element-center offsets along the physical detector line."""
        idx = np.arange(self.n_detectors, dtype=np.float64)
        return (idx - (self.n_detectors - 1) / 2.0) * self.detector_spacing

    @property
    def magnification(self):
        return (self.source_to_center + self.center_to_detector) / self.source_to_center

    @property
    def virtual_detector_coords(self):
        """Detector coordinates rescaled to the line through the center."""
        return self.detector_offsets / self.magnification

    @property
    def virtual_detector_spacing(self):
        return self.detector_spacing / self.magnification

    def to_kv(self) -> str:
        *head, (lo, hi) = (getattr(self, f.name) for f in fields(self))
        return "".join(f"{k}={tp(v)!r}\n"
                       for (k, tp), v in zip(_GEOM_KEYS.items(), (*head, lo, hi)))

    @classmethod
    def from_kv(cls, text: str) -> "FanBeamGeometry":
        kv = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"malformed geometry line: {line!r}")
            k, v = line.split("=", 1)
            kv[k.strip()] = v.strip()
        missing = [k for k in _GEOM_KEYS if k not in kv]
        if missing:
            raise InvalidArgumentError(f"geometry block missing keys: {missing}")
        unknown = [k for k in kv if k not in _GEOM_KEYS]
        if unknown:
            raise InvalidArgumentError(f"geometry block has unknown keys: {unknown}")
        vals = []
        for k, tp in _GEOM_KEYS.items():
            try:
                vals.append(tp(kv[k]))
            except ValueError:
                raise InvalidArgumentError(
                    f"geometry key {k} is not a number: {kv[k]!r}") from None
        return cls(*vals[:5], angular_range=tuple(vals[5:]))


def desk_geometry(n_views, n_detectors, nx, pixel_size=1.0):
    """Reference geometry scaled so the whole grid sits inside the fan FOV.

    Keeps the 40 cm / 40 cm / 41.3 cm ratios of the reference scanner and
    rescales them so the field-of-view circle covers the image half-diagonal
    times 1.02.
    """
    half_fan = math.atan((_REF_DET_WIDTH_MM / 2.0) / (_REF_SOD_MM + _REF_CDD_MM))
    fov_radius_ref = _REF_SOD_MM * math.sin(half_fan)
    half_diag = math.sqrt(2.0) * nx * pixel_size / 2.0
    scale = 1.02 * half_diag / fov_radius_ref
    return FanBeamGeometry(
        source_to_center=_REF_SOD_MM * scale,
        center_to_detector=_REF_CDD_MM * scale,
        n_views=n_views,
        n_detectors=n_detectors,
        detector_width=_REF_DET_WIDTH_MM * scale,
    )


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """Square-pixel image on a centered grid. values[iy, ix], both centered."""

    nx: int
    ny: int
    pixel_size: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise InvalidArgumentError("bad image dimensions")
        if not (math.isfinite(self.pixel_size) and self.pixel_size > 0):
            raise InvalidArgumentError(f"pixel_size {self.pixel_size} must be finite and > 0")
        v = _readonly(self.values)
        if v.shape != (self.ny, self.nx):
            raise ShapeMismatchError(f"values shape {v.shape} != (ny, nx)=({self.ny}, {self.nx})")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("image values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def xs(self):
        return (np.arange(self.nx) - (self.nx - 1) / 2.0) * self.pixel_size

    @property
    def ys(self):
        return (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.pixel_size

    def with_values(self, values) -> "ImageGrid":
        return ImageGrid(self.nx, self.ny, self.pixel_size, values)


def served_views(g: FanBeamGeometry, grid: ImageGrid):
    """The view symmetry the projector and FBP share: per base view, in
    order, the (image, view, columns) entries it serves, and the number of
    images (1, 4 or 8).

    Image m is the grid turned m quarter turns (``np.rot90``) for m < 4, and
    turned m - 4 times then flipped upside down (``np.flipud``) for m >= 4;
    :func:`to_images` makes them and :func:`from_images` adds them back.
    ``columns`` orders the base view's detector row as the served view's:
    ``slice(None)``, reversed for a flipped image.

    Quarter turns: on a square grid scanned over exactly 2π with a view
    count divisible by 4, view v + k·V/4 is view v applied to image k, since
    pixel centres map onto pixel centres, so the first V/4 views serve four
    views each. Mirror: if the scan also starts at angle 0, flipping the grid
    upside down maps the ray at angle θ and detector offset o onto the ray at
    π − θ and offset −o, and detector offsets are exactly antisymmetric, so
    view (V/2 − v + k·V/4) mod V is view v applied to image 4 + k with its
    columns reversed. Base views 0..⌊V/8⌋ then serve eight views each, four
    for views 0 and V/8, which are their own mirrors. Otherwise every view
    serves itself. A served view takes its rays from its base view's angle,
    so it differs from one traced at its own angle by rounding only, at most
    1e-13 of the output's peak. Each base view lists its images in ascending
    order from 0.
    """
    lo, hi = g.angular_range
    square_full_scan = grid.nx == grid.ny and hi - lo == 2.0 * math.pi
    turns = 4 if square_full_scan and g.n_views % 4 == 0 else 1
    mirror = turns == 4 and lo == 0.0
    per_turn = g.n_views // turns
    served = []
    for v in range(per_turn // 2 + 1 if mirror else per_turn):
        entries = [(k, v + k * per_turn, slice(None)) for k in range(turns)]
        if mirror and 0 < 2 * v < per_turn:
            entries += [(4 + k, (2 * per_turn - v + k * per_turn) % g.n_views,
                         slice(None, None, -1)) for k in range(4)]
        served.append(entries)
    return served, 8 if mirror else turns


def _to_image(a, m):
    a = np.rot90(a, m % 4)
    return np.flipud(a) if m >= 4 else a


def _from_image(a, m):
    return np.rot90(np.flipud(a) if m >= 4 else a, -(m % 4))


def to_images(a, n):
    """Images 0..n-1 of :func:`served_views` of the grid array ``a``, each
    a new C-ordered array."""
    return [_to_image(a, m).copy() for m in range(n)]


def from_images(acc):
    """Add each image ``acc[m]``, m ascending from 1, moved back onto the
    grid, onto ``acc[0]`` in place, and return ``acc[0]``: the order the
    sum's bytes depend on."""
    out = acc[0]
    for m in range(1, len(acc)):
        out += _from_image(acc[m], m)
    return out


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Stack of projection rows, one per view, values[view, detector], and
    the fan-beam geometry that acquired them."""

    values: np.ndarray = field(repr=False)
    geometry: FanBeamGeometry

    def __post_init__(self):
        g = self.geometry
        if not isinstance(g, FanBeamGeometry):
            raise InvalidArgumentError("a sinogram needs its FanBeamGeometry")
        v = _readonly(self.values)
        if v.ndim != 2:
            raise ShapeMismatchError("sinogram values must be 2-D")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("sinogram values must be finite")
        if v.shape != (g.n_views, g.n_detectors):
            raise ShapeMismatchError(
                f"sinogram shape {v.shape} != geometry ({g.n_views}, {g.n_detectors})"
            )
        object.__setattr__(self, "values", v)

    @property
    def n_views(self):
        return self.values.shape[0]

    @property
    def n_detectors(self):
        return self.values.shape[1]

    def with_values(self, values) -> "Sinogram":
        return Sinogram(values, self.geometry)


@dataclass(frozen=True, eq=False)
class SparseMask:
    """Row mask keeping every r-th view: row i active iff i % r == 0."""

    n_views: int
    r: int
    active: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_views < 1:
            raise InvalidArgumentError("n_views must be >= 1")
        if self.r < 1 or self.r > self.n_views:
            raise InvalidArgumentError("stride r must satisfy 1 <= r <= n_views")
        active = (np.arange(self.n_views) % self.r) == 0
        active.setflags(write=False)
        object.__setattr__(self, "active", active)

    @property
    def n_active(self):
        return int(self.active.sum())


def make_sparse_mask(n_views: int, r: int) -> SparseMask:
    """Build the stride-r view mask; keeps ceil(n_views / r) rows."""
    return SparseMask(n_views=n_views, r=r)


def apply_mask(s: Sinogram, m: SparseMask) -> Sinogram:
    """Zero out inactive view rows. Active rows pass through bit-exactly."""
    return Sinogram(mask_rows(s.values, m.active), s.geometry)


def row_flags(active, values) -> np.ndarray:
    """``active`` as one bool flag per row of ``values`` (views along axis 0);
    any other shape is rejected, naming both shapes."""
    active = np.asarray(active, bool)
    if active.shape != values.shape[:1]:
        raise ShapeMismatchError(f"row flags of shape {active.shape} do not match "
                                 f"values of shape {values.shape}")
    return active


def mask_rows(values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Row-mask a plain array (views along axis 0)."""
    values = np.asarray(values)
    return np.where(row_flags(active, values)[:, None], values, 0.0)
