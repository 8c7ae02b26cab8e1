"""Stationary wavelet transform: perfect reconstruction and band algebra."""

import numpy as np
import pytest

import stridect as st
from stridect.errors import InvalidArgumentError, ShapeMismatchError
from stridect.wavelet import filter_pair


@pytest.mark.parametrize("wavelet", ["haar", "db2"])
def test_filters_orthonormal(wavelet):
    lo, hi = filter_pair(wavelet)
    assert lo @ lo == pytest.approx(1.0, abs=1e-12)
    assert hi @ hi == pytest.approx(1.0, abs=1e-12)
    assert abs(lo @ hi) <= 1e-12


def test_unknown_filter_rejected():
    with pytest.raises(InvalidArgumentError):
        filter_pair("sym4")
    with pytest.raises(InvalidArgumentError):
        st.swt_decompose(np.zeros((8, 8)), "coif1")


@pytest.mark.parametrize("wavelet", ["haar", "db2"])
def test_perfect_reconstruction(wavelet):
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.normal(size=(64, 64))
        bands = st.swt_decompose(x, wavelet)
        back = st.iswt_reconstruct(bands)
        assert np.max(np.abs(back - x)) <= 1e-8


def test_zero_input_zero_bands():
    bands = st.swt_decompose(np.zeros((16, 16)), "haar")
    assert not bands.values.any()
    assert not st.iswt_reconstruct(bands).any()


@pytest.mark.parametrize("wavelet", ["haar", "db2"])
def test_constant_input(wavelet):
    c = 3.25
    bands = st.swt_decompose(np.full((12, 10), c), wavelet)
    for b in bands.high:
        assert np.max(np.abs(b)) <= 1e-12
    assert np.allclose(bands.low, 2.0 * c, atol=1e-12)
    assert np.allclose(st.iswt_reconstruct(bands), c, atol=1e-12)


@pytest.mark.parametrize("wavelet", ["haar", "db2"])
def test_energy_identity(wavelet):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(128, 128))
    bands = st.swt_decompose(x, wavelet)
    # each band filter pair has unit norm, so the four bands carry 4 |x|^2
    total = float(np.sum(bands.values ** 2))
    assert total == pytest.approx(4.0 * float(np.sum(x * x)), rel=1e-8)


def test_analysis_and_synthesis_linear():
    rng = np.random.default_rng(9)
    x1 = rng.normal(size=(32, 32))
    x2 = rng.normal(size=(32, 32))
    a, b = 1.7, -0.4
    mix = st.swt_decompose(a * x1 + b * x2, "db2")
    b1 = st.swt_decompose(x1, "db2")
    b2 = st.swt_decompose(x2, "db2")
    assert np.max(np.abs(mix.values - (a * b1.values + b * b2.values))) <= 1e-10
    lhs = st.iswt_reconstruct(mix)
    rhs = a * st.iswt_reconstruct(b1) + b * st.iswt_reconstruct(b2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@pytest.mark.parametrize("wavelet", ["haar", "db2"])
def test_shift_covariance_bitwise(wavelet):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(20, 24))
    shift = (3, -5)
    rolled = st.swt_decompose(np.roll(x, shift, axis=(0, 1)), wavelet)
    plain = st.swt_decompose(x, wavelet)
    assert np.array_equal(rolled.values, np.roll(plain.values, shift, axis=(1, 2)))


def test_swt_accepts_sinogram_values():
    rng = np.random.default_rng(11)
    s = st.Sinogram(rng.normal(size=(10, 8)), st.desk_geometry(10, 8, 16))
    bands = st.swt_decompose(s, "haar")
    assert bands.shape == (10, 8)
    with pytest.raises(ShapeMismatchError):
        st.swt_decompose(np.zeros(16), "haar")


def test_band_container_contracts():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(8, 6))
    bands = st.swt_decompose(x, "haar")
    assert bands.values.shape == (4, 8, 6)
    assert bands.shape == (8, 6)
    # low and high are views of the one band array, not copies
    assert np.shares_memory(bands.low, bands.values)
    assert np.shares_memory(bands.high, bands.values)
    assert np.array_equal(bands.low, bands.values[0])
    assert np.array_equal(bands.high, bands.values[1:])
    values = rng.normal(size=(4, 5, 7))
    made = st.WaveletBands(values, "db2")
    assert made.values is values
    assert made.wavelet == "db2"
    assert made.shape == (5, 7)
    for bad in (np.zeros((3, 8, 8)), np.zeros((5, 8, 8)), np.zeros((8, 8)),
                np.zeros((4, 8, 8, 1))):
        with pytest.raises(ShapeMismatchError):
            st.WaveletBands(bad)


# ------------------------------------ one band array against the band tuple


def _tuple_conv_axis(x, f, axis):
    out = np.zeros_like(x, dtype=np.float64)
    for k, fk in enumerate(f):
        out += fk * np.roll(x, k, axis=axis)
    return out


def _tuple_corr_axis(x, f, axis):
    out = np.zeros_like(x, dtype=np.float64)
    for k, fk in enumerate(f):
        out += fk * np.roll(x, -k, axis=axis)
    return out


def _tuple_swt(x, wavelet):
    """The analysis as written when the bands were a low array and a tuple
    of three high arrays, each from its own convolution and adjoint."""
    lo, hi = filter_pair(wavelet)
    arr = np.asarray(getattr(x, "values", x), dtype=np.float64)
    r_lo = _tuple_conv_axis(arr, lo, 0)
    r_hi = _tuple_conv_axis(arr, hi, 0)
    return [_tuple_conv_axis(r_lo, lo, 1), _tuple_conv_axis(r_lo, hi, 1),
            _tuple_conv_axis(r_hi, lo, 1), _tuple_conv_axis(r_hi, hi, 1)]


def _tuple_iswt(bands, wavelet):
    lo, hi = filter_pair(wavelet)
    out = np.zeros(bands[0].shape, dtype=np.float64)
    for band, f0, f1 in zip(bands, (lo, lo, hi, hi), (lo, hi, lo, hi)):
        out += _tuple_corr_axis(_tuple_corr_axis(band, f1, 1), f0, 0)
    return out / 4.0


@pytest.mark.parametrize("wavelet", ["haar", "db2"])
@pytest.mark.parametrize("shape", [(16, 16), (13, 7), (18, 40), "sinogram"])
def test_band_array_bytes_match_band_tuple(wavelet, shape):
    rng = np.random.default_rng(14)
    x = (st.Sinogram(rng.normal(size=(12, 20)), st.desk_geometry(12, 20, 16))
         if shape == "sinogram" else rng.normal(size=shape))
    bands = st.swt_decompose(x, wavelet)
    want = _tuple_swt(x, wavelet)
    assert [b.tobytes() for b in bands.values] == [w.tobytes() for w in want]
    assert st.iswt_reconstruct(bands).tobytes() == _tuple_iswt(want, wavelet).tobytes()
