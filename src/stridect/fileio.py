"""On-disk formats: raster images, sinograms with geometry sidecars, PGM.

Binary layouts are little-endian float32 with a one-line ASCII header, so
files round-trip across platforms. PGM export is lossy (8-bit, range
normalized) and meant for quick visual checks only.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidArgumentError
from .geometry import FanBeamGeometry, ImageGrid, Sinogram

_IMG_MAGIC = b"IMGF"
_SINO_MAGIC = b"SGRAM"


def _read_header(f, magic, n_fields):
    line = f.readline()
    if not line.startswith(magic + b" "):
        raise InvalidArgumentError(f"bad magic, expected {magic.decode()}")
    parts = line[len(magic):].split()
    if len(parts) != n_fields:
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


def write_image(path, img: ImageGrid) -> None:
    with open(path, "wb") as f:
        f.write(_IMG_MAGIC + f" {img.nx} {img.ny}\n".encode())
        f.write(np.asarray(img.values, dtype="<f4").tobytes())


def read_image(path, pixel_size: float = 1.0) -> ImageGrid:
    with open(path, "rb") as f:
        nx, ny = _read_header(f, _IMG_MAGIC, 2)
        vals = _read_payload(f, nx * ny).reshape(ny, nx)
    return ImageGrid(nx=nx, ny=ny, pixel_size=pixel_size, values=vals)


def _geom_path(path) -> str:
    return os.fspath(path) + ".geom"


def write_sinogram(path, sino: Sinogram) -> None:
    """Values go to path; the acquisition geometry goes to path + ".geom"."""
    g = sino.geometry
    with open(path, "wb") as f:
        f.write(_SINO_MAGIC + f" {g.n_views} {g.n_detectors}\n".encode())
        f.write(np.asarray(sino.values, dtype="<f4").tobytes())
    with open(_geom_path(path), "w") as f:
        f.write(g.to_kv())


def read_sinogram(path) -> Sinogram:
    # undecodable bytes become U+FFFD, which from_kv rejects as data
    with open(_geom_path(path), errors="replace") as f:
        geom = FanBeamGeometry.from_kv(f.read())
    with open(path, "rb") as f:
        n_views, n_det = _read_header(f, _SINO_MAGIC, 2)
        vals = _read_payload(f, n_views * n_det).reshape(n_views, n_det)
    if (n_views, n_det) != (geom.n_views, geom.n_detectors):
        raise InvalidArgumentError("sinogram shape disagrees with sidecar")
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
