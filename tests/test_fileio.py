"""File formats: raster images, sinograms with sidecars, PGM previews."""

import numpy as np
import pytest

import stridect as st
from stridect.errors import InvalidArgumentError, ShapeMismatchError
from stridect.fileio import read_kv


def _f32_image(nx=6, ny=4, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(ny, nx)).astype(np.float32).astype(np.float64)
    return st.ImageGrid(nx, ny, 1.0, vals)


def test_image_roundtrip_bitwise(tmp_path):
    img = _f32_image()
    path = tmp_path / "img.bin"
    st.write_image(path, img)
    back = st.read_image(path)
    assert back.nx == img.nx and back.ny == img.ny
    assert np.array_equal(back.values, img.values)


def test_image_write_read_write_stable(tmp_path):
    img = _f32_image(seed=1)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    st.write_image(p1, img)
    st.write_image(p2, st.read_image(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_image_header_and_payload_errors(tmp_path):
    img = _f32_image()
    path = tmp_path / "img.bin"
    st.write_image(path, img)
    raw = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(InvalidArgumentError):
        st.read_image(bad)

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:-8])
    with pytest.raises(InvalidArgumentError):
        st.read_image(short)

    counts = tmp_path / "counts.bin"
    counts.write_bytes(b"IMGF 6 4 9\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(InvalidArgumentError):
        st.read_image(counts)

    fraction = tmp_path / "fraction.bin"
    fraction.write_bytes(b"IMGF 6 4.5\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(InvalidArgumentError, match="non-integer"):
        st.read_image(fraction)

    negative = tmp_path / "neg.bin"
    negative.write_bytes(b"IMGF -6 4\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(InvalidArgumentError):
        st.read_image(negative)

    with pytest.raises(FileNotFoundError):
        st.read_image(tmp_path / "absent.bin")


def _small_sino(seed=2):
    g = st.desk_geometry(6, 8, 16)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(6, 8)).astype(np.float32).astype(np.float64)
    return st.Sinogram(vals, g)


def test_sinogram_roundtrip(tmp_path):
    sino = _small_sino()
    path = tmp_path / "scan.bin"
    st.write_sinogram(path, sino)
    g0 = sino.geometry
    assert path.read_bytes().startswith(f"SGRAM {g0.n_views} {g0.n_detectors}\n".encode())
    back = st.read_sinogram(path)
    assert np.array_equal(back.values, sino.values)
    g1 = back.geometry
    assert g1.n_views == g0.n_views
    assert g1.n_detectors == g0.n_detectors
    assert g1.source_to_center == g0.source_to_center
    assert g1.center_to_detector == g0.center_to_detector
    assert g1.detector_width == g0.detector_width
    assert g1.angular_range == g0.angular_range


def test_numpy_scalar_geometry_sidecar_round_trips(tmp_path):
    # a numpy scalar once went to the sidecar as its repr, np.float64(...)
    g = st.desk_geometry(np.int64(12), 16, 16, pixel_size=np.float64(0.5))
    assert type(g.source_to_center) is np.float64
    sino = st.Sinogram(np.zeros((12, 16)), g)
    path = tmp_path / "scan.bin"
    st.write_sinogram(path, sino)
    assert "np." not in (tmp_path / "scan.bin.geom").read_text()
    assert st.read_sinogram(path).geometry == g


def test_sinogram_write_read_write_stable(tmp_path):
    sino = _small_sino(seed=3)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    st.write_sinogram(p1, sino)
    st.write_sinogram(p2, st.read_sinogram(p1))
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.bin.geom").read_bytes() == \
        (tmp_path / "b.bin.geom").read_bytes()


def test_sinogram_errors(tmp_path):
    sino = _small_sino()
    path = tmp_path / "scan.bin"
    st.write_sinogram(path, sino)

    # missing sidecar
    lone = tmp_path / "lone.bin"
    lone.write_bytes(path.read_bytes())
    with pytest.raises(FileNotFoundError):
        st.read_sinogram(lone)

    # sidecar disagrees with the payload header
    other = st.Sinogram(np.zeros((12, 8)), st.desk_geometry(12, 8, 16))
    st.write_sinogram(tmp_path / "other.bin", other)
    mixed = tmp_path / "mixed.bin"
    mixed.write_bytes(path.read_bytes())
    (tmp_path / "mixed.bin.geom").write_bytes(
        (tmp_path / "other.bin.geom").read_bytes())
    with pytest.raises(ShapeMismatchError, match=r"\(6, 8\), expected \(12, 8\)"):
        st.read_sinogram(mixed)

    # corrupted sidecar text
    (tmp_path / "scan.bin.geom").write_text("nonsense 42\n")
    with pytest.raises(InvalidArgumentError):
        st.read_sinogram(path)


def test_read_kv_rule():
    parsers = {"a": int, "b": str}
    lines = ["# head", "", "  a = 3  # three", "b = x=y # the first = splits"]
    assert read_kv(lines, parsers) == {"a": 3, "b": "x=y"}
    for lines, word in ((["a 3"], "expected key=value"), (["c = 1"], "unknown key 'c'"),
                        (["b = 1", "a = three"], "a: invalid literal")):
        with pytest.raises(InvalidArgumentError, match=f"line {len(lines)}: {word}"):
            read_kv(lines, parsers)


def test_sidecar_trailing_comment_round_trips(tmp_path):
    sino = _small_sino()
    path = tmp_path / "scan.bin"
    st.write_sinogram(path, sino)
    geom = tmp_path / "scan.bin.geom"
    geom.write_text("".join(line + "  # as written\n"
                            for line in geom.read_text().splitlines()))
    assert st.read_sinogram(path).geometry == sino.geometry


def test_sidecar_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "scan.bin"
    st.write_sinogram(path, _small_sino())
    geom = tmp_path / "scan.bin.geom"
    lines = geom.read_text().splitlines()
    for bad, word in (("n_views=six", "line 3: n_views"), ("sad_mm=1.0", "line 3: unknown key"),
                      ("n_views 6", "line 3: expected key=value")):
        geom.write_text("\n".join(lines[:2] + [bad] + lines[3:]) + "\n")
        with pytest.raises(InvalidArgumentError, match=f"scan.bin.geom: {word}"):
            st.read_sinogram(path)
    # a missing key is refused, and so is a value the geometry refuses
    geom.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(InvalidArgumentError, match=r"scan.bin.geom: missing keys \['angle_end_rad'\]"):
        st.read_sinogram(path)
    geom.write_text("\n".join(["sod_mm=-1.0"] + lines[1:]) + "\n")
    with pytest.raises(InvalidArgumentError, match=r"scan.bin.geom: source_to_center \(sod_mm\)"):
        st.read_sinogram(path)


def test_values_beyond_float32_are_refused_before_writing(tmp_path):
    # float32 would store them as inf, which the readers reject
    big = float(np.finfo(np.float32).max) * 2.0
    img = st.ImageGrid(4, 2, 1.0, np.array([[0.0, 1.0, -big, 2.0], [0.0] * 4]))
    with pytest.raises(InvalidArgumentError, match="float32"):
        st.write_image(tmp_path / "img.bin", img)
    sino = _small_sino().values.copy()
    sino[2, 3] = big
    with pytest.raises(InvalidArgumentError, match="float32"):
        st.write_sinogram(tmp_path / "scan.bin", st.Sinogram(sino, st.desk_geometry(6, 8, 16)))
    assert not list(tmp_path.iterdir())
    # the largest float32 still round-trips
    edge = img.with_values(np.clip(img.values, -big / 2.0, big / 2.0))
    st.write_image(tmp_path / "edge.bin", edge)
    assert np.array_equal(st.read_image(tmp_path / "edge.bin").values,
                          edge.values.astype(np.float32))


def test_pgm_export(tmp_path):
    vals = np.array([[0.0, 0.5], [0.75, 1.0]])
    path = tmp_path / "img.pgm"
    st.write_pgm(path, vals)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = raw.split(b"255\n", 1)[1]
    assert list(pixels) == [0, 128, 191, 255]

    flat = tmp_path / "flat.pgm"
    st.write_pgm(flat, np.full((2, 3), 7.0))
    body = flat.read_bytes().split(b"255\n", 1)[1]
    assert list(body) == [0] * 6

    with pytest.raises(InvalidArgumentError):
        st.write_pgm(tmp_path / "bad.pgm", np.zeros(5))


def test_pgm_accepts_image_grid(tmp_path):
    ph = st.shepp_logan(8, 8)
    path = tmp_path / "ph.pgm"
    st.write_pgm(path, ph)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n")
    assert len(raw.split(b"255\n", 1)[1]) == 64
