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
    assert not bands.low.any()
    assert not any(b.any() for b in bands.high)
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
    total = sum(float(np.sum(np.asarray(b) ** 2)) for b in (bands.low, *bands.high))
    expect = st.energy_constant(wavelet) * float(np.sum(x * x))
    assert total == pytest.approx(expect, rel=1e-8)
    assert st.energy_constant(wavelet) == pytest.approx(4.0, abs=1e-12)


def test_analysis_and_synthesis_linear():
    rng = np.random.default_rng(9)
    x1 = rng.normal(size=(32, 32))
    x2 = rng.normal(size=(32, 32))
    a, b = 1.7, -0.4
    mix = st.swt_decompose(a * x1 + b * x2, "db2")
    b1 = st.swt_decompose(x1, "db2")
    b2 = st.swt_decompose(x2, "db2")
    for got, p, q in zip((mix.low, *mix.high), (b1.low, *b1.high), (b2.low, *b2.high)):
        assert np.max(np.abs(got - (a * p + b * q))) <= 1e-10
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
    for got, ref in zip((rolled.low, *rolled.high), (plain.low, *plain.high)):
        assert np.array_equal(got, np.roll(ref, shift, axis=(0, 1)))


def test_swt_accepts_sinogram_values():
    rng = np.random.default_rng(11)
    s = st.Sinogram(rng.normal(size=(10, 8)))
    bands = st.swt_decompose(s, "haar")
    assert bands.shape == (10, 8)
    with pytest.raises(ShapeMismatchError):
        st.swt_decompose(np.zeros(16), "haar")


def test_band_container_contracts():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(8, 8))
    bands = st.swt_decompose(x, "haar")
    stack = bands.stack_high()
    assert stack.shape == (3, 8, 8)
    assert np.array_equal(stack[1], bands.high[1])
    swapped = bands.replace(low=np.zeros((8, 8)))
    assert not swapped.low.any()
    assert np.array_equal(swapped.high[0], bands.high[0])
    with pytest.raises(InvalidArgumentError):
        st.WaveletBands(low=x, high=(x, x))
    with pytest.raises(ShapeMismatchError):
        st.WaveletBands(low=x, high=(x, x, np.zeros((4, 4))))
