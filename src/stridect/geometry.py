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


def quarter_turns(g: FanBeamGeometry, grid: ImageGrid) -> int:
    """Quarter-turn rule: 4 on a square grid scanned over exactly 2π with a
    view count divisible by 4, else 1.

    Under the rule view v + k·V/4 is view v applied to the grid turned k
    quarter turns (``np.rot90``), since pixel centres map onto pixel centres,
    so the projector and FBP do per-view geometry work for the first V/4
    views only and let each serve four views.
    """
    lo, hi = g.angular_range
    square_full_scan = grid.nx == grid.ny and hi - lo == 2.0 * math.pi
    return 4 if square_full_scan and g.n_views % 4 == 0 else 1


def mirror_symmetric(g: FanBeamGeometry, grid: ImageGrid) -> bool:
    """Mirror rule: the quarter-turn rule holds and the scan starts at angle 0.

    Flipping the grid upside down (``np.flipud``) maps the ray at angle θ and
    detector offset o onto the ray at π − θ and offset −o, and detector
    offsets are exactly antisymmetric. So under the rule view (V/2 − v) mod V
    is view v applied to the flipped grid with its detector columns reversed,
    and with the quarter turns view (V/2 − v + k·V/4) mod V is view v on
    ``np.flipud(np.rot90(grid, k))``, reversed. The projector and FBP then do
    per-view geometry work for views 0..⌊V/8⌋ only, each serving up to eight
    views (:func:`served_views`); mirrored views differ from views traced at
    their own angle by rounding only, at most 1e-13 of the output's peak.
    """
    return quarter_turns(g, grid) == 4 and g.angular_range[0] == 0.0


def served_views(g: FanBeamGeometry, grid: ImageGrid):
    """The symmetry table the projector and FBP share: per base view, in
    order, the (image, view) pairs it serves, and the number of images.

    Image m is the grid turned m quarter turns for m < 4, and turned m - 4
    times then flipped upside down for m >= 4 (see :func:`to_image`); a view
    served by a flipped image has its detector columns reversed. Under the
    mirror rule base views 0..⌊V/8⌋ serve eight views each, four for views 0
    and V/8, which are their own mirrors; under the quarter turns alone the
    first V/4 serve four; otherwise every view serves itself. Each base
    view's pairs list its images in ascending order from 0.
    """
    q = quarter_turns(g, grid)
    per_turn = g.n_views // q
    if not mirror_symmetric(g, grid):
        return [[(k, v + k * per_turn) for k in range(q)] for v in range(per_turn)], q
    served = []
    for v in range(per_turn // 2 + 1):
        pairs = [(k, v + k * per_turn) for k in range(4)]
        if 0 < 2 * v < per_turn:
            pairs += [(4 + k, (2 * per_turn - v + k * per_turn) % g.n_views)
                      for k in range(4)]
        served.append(pairs)
    return served, 8


def to_image(a, m):
    """Grid array ``a`` as image m of :func:`served_views`."""
    a = np.rot90(a, m % 4)
    return np.flipud(a) if m >= 4 else a


def from_image(a, m):
    """Inverse of :func:`to_image`."""
    return np.rot90(np.flipud(a) if m >= 4 else a, -(m % 4))


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


def mask_rows(values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Row-mask a plain array (views along axis 0)."""
    values = np.asarray(values)
    if values.shape[0] != active.shape[0]:
        raise ShapeMismatchError("row mask length does not match array")
    return np.where(np.asarray(active, bool)[:, None], values, 0.0)
