"""On-disk formats: raster images, sinograms with geometry sidecars, PGM,
the ``key = value`` text of sidecars and config files, and the CSV text of
reports and tables.

Binary layouts are little-endian float32 with a one-line ASCII header, so
files round-trip across platforms. A sinogram's scan geometry goes to a
``.geom`` sidecar, one ``key=value`` line per :class:`FanBeamGeometry`
argument; :func:`read_kv` reads it, and config files, by one rule. PGM
export is lossy (8-bit, range normalized) and meant for quick visual checks
only.
"""

from __future__ import annotations

import os
from dataclasses import astuple

import numpy as np

from .errors import InvalidArgumentError
from .geometry import FanBeamGeometry, ImageGrid, Sinogram

_IMG_MAGIC = b"IMGF"
_SINO_MAGIC = b"SGRAM"

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


def _read_header(f, magic):
    line = f.readline()
    if not line.startswith(magic + b" "):
        raise InvalidArgumentError(f"bad magic, expected {magic.decode()}")
    parts = line[len(magic):].split()
    if len(parts) != 2:
        raise InvalidArgumentError("malformed header")
    try:
        dims = [int(p) for p in parts]
    except ValueError as e:
        raise InvalidArgumentError("non-integer header field") from e
    if any(d <= 0 for d in dims):
        raise InvalidArgumentError("header dimensions must be positive")
    return dims


def _read_payload(f, count):
    data = f.read()
    expected = count * 4
    if len(data) != expected:
        raise InvalidArgumentError(
            f"payload is {len(data)} bytes, expected {expected}")
    return np.frombuffer(data, dtype="<f4").astype(np.float64)


def _payload(values) -> bytes:
    """The float32 payload; a value beyond float32's range would be written
    as inf, which the readers reject, so it is refused before any file is
    opened."""
    with np.errstate(over="ignore"):
        data = np.asarray(values, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise InvalidArgumentError(
            f"values beyond float32's range (|v| > {np.finfo(np.float32).max:.4g}) "
            "cannot be written")
    return data.tobytes()


def write_image(path, img: ImageGrid) -> None:
    data = _payload(img.values)
    with open(path, "wb") as f:
        f.write(_IMG_MAGIC + f" {img.nx} {img.ny}\n".encode())
        f.write(data)


def read_image(path, pixel_size: float = 1.0) -> ImageGrid:
    with open(path, "rb") as f:
        nx, ny = _read_header(f, _IMG_MAGIC)
        vals = _read_payload(f, nx * ny).reshape(ny, nx)
    return ImageGrid(nx=nx, ny=ny, pixel_size=pixel_size, values=vals)


def read_kv(lines, parsers) -> dict:
    """``key = value`` lines as a dict of parsed values: ``#`` starts a
    comment, blank lines are skipped, and a line splits at its first ``=``.
    A line without ``=``, a key not in ``parsers``, or a value its key's
    parser refuses with ValueError raises InvalidArgumentError naming the
    line."""
    out = {}
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"line {ln}: expected key=value")
        key, val = (p.strip() for p in line.split("=", 1))
        if key not in parsers:
            raise InvalidArgumentError(f"line {ln}: unknown key {key!r}")
        try:
            out[key] = parsers[key](val)
        except ValueError as e:
            raise InvalidArgumentError(f"line {ln}: {key}: {e}") from None
    return out


def _geom_path(path) -> str:
    return os.fspath(path) + ".geom"


def write_sinogram(path, sino: Sinogram) -> None:
    """Values go to path; the acquisition geometry goes to path + ".geom"."""
    g = sino.geometry
    data = _payload(sino.values)
    with open(path, "wb") as f:
        f.write(_SINO_MAGIC + f" {g.n_views} {g.n_detectors}\n".encode())
        f.write(data)
    *head, (lo, hi) = astuple(g)
    with open(_geom_path(path), "w") as f:
        f.write("".join(f"{k}={tp(v)!r}\n"
                        for (k, tp), v in zip(_GEOM_KEYS.items(), (*head, lo, hi))))


def read_sinogram(path) -> Sinogram:
    """The values at path, acquired with the geometry in path + ".geom";
    an error in the sidecar names it."""
    gpath = _geom_path(path)
    try:
        # undecodable bytes become U+FFFD, which no key or value parser accepts
        with open(gpath, errors="replace") as f:
            kv = read_kv(f, _GEOM_KEYS)
        missing = [k for k in _GEOM_KEYS if k not in kv]
        if missing:
            raise InvalidArgumentError(f"missing keys {missing}")
        *head, lo, hi = (kv[k] for k in _GEOM_KEYS)
        geom = FanBeamGeometry(*head, angular_range=(lo, hi))
    except InvalidArgumentError as e:
        raise InvalidArgumentError(f"{gpath}: {e}") from None
    with open(path, "rb") as f:
        n_views, n_det = _read_header(f, _SINO_MAGIC)
        vals = _read_payload(f, n_views * n_det).reshape(n_views, n_det)
    return Sinogram(values=vals, geometry=geom)


def write_pgm(path, values) -> None:
    """8-bit preview; the value range is stretched to 0..255."""
    values = np.asarray(getattr(values, "values", values), dtype=np.float64)
    if values.ndim != 2:
        raise InvalidArgumentError("PGM export needs a 2-D array")
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        quant = np.rint((values - lo) / (hi - lo) * 255.0)
    else:
        quant = np.zeros_like(values)
    with open(path, "wb") as f:
        f.write(f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode())
        f.write(quant.astype(np.uint8).tobytes())


def to_csv(header, rows) -> str:
    """One comma-separated line for the header, then one per row: a text
    cell as it is, a number as %.10g."""
    lines = [",".join(header)]
    lines += (",".join(c if isinstance(c, str) else f"{c:.10g}" for c in row) for row in rows)
    return "".join(line + "\n" for line in lines)
