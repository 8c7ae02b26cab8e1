"""Phantom rasterization and image quality metrics."""

import math

import numpy as np
import pytest

import stridect as st
from stridect.errors import InvalidArgumentError, ShapeMismatchError
from stridect.evalkit import SHEPP_LOGAN_ELLIPSES, _box_mean, rasterize_ellipses


def test_phantom_value_range_and_landmarks():
    ph = st.shepp_logan(64, 64).values
    assert ph.min() >= 0.0 and ph.max() <= 1.0
    assert ph[0, 0] == 0.0 and ph[-1, -1] == 0.0
    mid = ph[31:33, 31:33]
    assert np.allclose(mid, 0.2)
    # outer skull ring keeps full density
    assert ph.max() == 1.0


def test_phantom_mirror_symmetry():
    ph = st.shepp_logan(32, 32).values
    mirrored = [st.Ellipse(-e.x0, e.y0, e.a, e.b, -e.angle_deg, e.density)
                for e in SHEPP_LOGAN_ELLIPSES]
    expect = np.clip(rasterize_ellipses(mirrored, 32, 32), 0.0, 1.0)
    assert np.array_equal(np.fliplr(ph), expect)


def test_phantom_validation():
    with pytest.raises(InvalidArgumentError):
        st.shepp_logan(0, 16)


def test_mse_definition():
    assert st.mse(np.zeros(4), np.ones(4)) == 1.0
    assert st.mse(np.array([1.0, 3.0]), np.array([2.0, 5.0])) == 2.5
    with pytest.raises(ShapeMismatchError):
        st.mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_psnr_reference_points():
    ref = np.linspace(0.0, 1.0, 100).reshape(10, 10)
    assert st.psnr(ref, ref) == np.inf
    shifted = ref + 0.1
    assert st.psnr(ref, shifted) == pytest.approx(20.0, rel=1e-12)
    # a constant reference has no range and takes 1
    assert st.psnr(np.ones(4), np.full(4, 1.1)) == pytest.approx(20.0, rel=1e-12)
    # doubling the nominal range adds 20 log10(2)
    gain = st.psnr(ref, shifted, data_range=2.0) - st.psnr(ref, shifted,
                                                           data_range=1.0)
    assert gain == pytest.approx(20.0 * np.log10(2.0), rel=1e-12)
    # a squared error past the float range
    assert st.psnr(np.arange(4.0), np.full(4, 1e200)) == -np.inf
    # a squared range past it: 20 log10(1e200) - 10 log10(0.5)
    big = np.array([0.0, 1e200])
    assert st.psnr(big, big + 1.0) == pytest.approx(4000.0 + 10.0 * np.log10(2.0),
                                                    rel=1e-12)
    # a squared error past it on that range: about 1e190 / 1e200 on one of two
    # entries (the sum rounds at 1e184)
    assert st.psnr(big, np.array([0.0, 1e200 + 1e190])) == pytest.approx(
        200.0 + 10.0 * np.log10(2.0), rel=1e-6)


def test_psnr_consistent_with_mse():
    rng = np.random.default_rng(0)
    a = rng.random((8, 8))
    b = rng.random((8, 8))
    expect = 10.0 * np.log10((a.max() - a.min()) ** 2 / st.mse(a, b))
    assert st.psnr(a, b) == pytest.approx(expect, rel=1e-12)


def test_psnr_monotone_in_noise():
    rng = np.random.default_rng(1)
    ref = st.shepp_logan(32, 32).values
    noise = rng.standard_normal(ref.shape)
    values = [st.psnr(ref, ref + s * noise) for s in (0.01, 0.03, 0.1, 0.3)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_ssim_identity_and_sign():
    ph = st.shepp_logan(32, 32)
    assert st.ssim(ph, ph) == 1.0
    # period-7 zero-sum stripes: every retained window has exactly zero mean,
    # so negating the image flips the structure term negative
    period = np.array([1.0, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0])
    stripes = np.tile(period, 5)[:32][None, :] * np.ones((32, 1))
    assert st.ssim(stripes, -stripes, data_range=2.0) < 0.0


def test_ssim_symmetry():
    rng = np.random.default_rng(2)
    a = rng.random((16, 16))
    b = rng.random((16, 16))
    assert abs(st.ssim(a, b, data_range=1.0)
               - st.ssim(b, a, data_range=1.0)) <= 1e-12


def test_ssim_constant_offset_closed_form():
    # flat images have zero variance, so only the luminance term remains
    a = np.full((16, 16), 0.5)
    b = a + 0.1
    c1 = (0.01 * 1.0) ** 2
    expect = (2 * 0.5 * 0.6 + c1) / (0.25 + 0.36 + c1)
    assert st.ssim(a, b, data_range=1.0) == pytest.approx(expect, rel=1e-12)


def test_ssim_window_validation():
    small = np.zeros((6, 6))
    with pytest.raises(InvalidArgumentError):
        st.ssim(small, small)
    with pytest.raises(InvalidArgumentError, match="positive"):
        st.ssim(small, small, window=0)
    # an even window's crop leaves nothing when the side equals the window
    with pytest.raises(InvalidArgumentError, match="too small"):
        st.ssim(np.zeros((2, 5)), np.ones((2, 5)), window=2)
    with pytest.raises(InvalidArgumentError, match="too small"):
        st.ssim(np.zeros((4, 9)), np.ones((4, 9)), window=4)


def _scipy_ssim(a, b, data_range, window):
    """Reference: SSIM as written on scipy's uniform_filter."""
    from scipy.ndimage import uniform_filter

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_a = uniform_filter(a, window)
    mu_b = uniform_filter(b, window)
    e_aa = uniform_filter(a * a, window)
    e_bb = uniform_filter(b * b, window)
    e_ab = uniform_filter(a * b, window)
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    pad = window // 2
    return float(s[pad:-pad or None, pad:-pad or None].mean())


def test_box_mean_and_ssim_match_scipy_bytes():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(11)
    period = np.array([1.0, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0])
    stripes = np.tile(period, 5)[:32][None, :] * np.ones((32, 1))
    noisy = rng.random((16, 16))
    # the inputs of the ssim tests above, then random ones
    cases = [(st.shepp_logan(32, 32).values, st.shepp_logan(32, 32).values, 7),
             (stripes, -stripes, 7), (noisy, rng.random((16, 16)), 7),
             (np.full((16, 16), 0.5), np.full((16, 16), 0.6), 7)]
    for _ in range(150):
        window = int(rng.integers(2, 12))
        shape = tuple(int(n) for n in rng.integers(window + 1, 60, size=2))
        scale = 10.0 ** rng.uniform(-8, 8)
        a, b = (rng.standard_normal(shape) * scale for _ in range(2))
        a[rng.random(shape) < 0.1] = -0.0
        b[rng.random(shape) < 0.1] = -0.0
        cases.append((a, b, window))
    for a, b, window in cases:
        for x in (a, b, a * b):
            assert _box_mean(x, window).tobytes() == ndimage.uniform_filter(x, window).tobytes()
        data_range = float(a.max() - a.min()) or 1.0
        got = st.ssim(a, b, window=window)
        assert np.float64(got).tobytes() == np.float64(
            _scipy_ssim(a, b, data_range, window)).tobytes()


def test_ssim_survives_ranges_whose_squares_leave_float64():
    rng = np.random.default_rng(4)
    x = rng.random((16, 16))
    y = x + 0.1 * rng.standard_normal((16, 16))
    unit = st.ssim(x, y)
    # the squared range or the squared images overflow, or they underflow
    # so that the constants vanish and flat windows read 0/0
    for scale in (1e150, 1e-200):
        got = st.ssim(x * scale, y * scale)
        assert math.isfinite(got)
        assert got == pytest.approx(unit, abs=1e-12)
    # one huge entry makes the range 1e200: in its units both images are
    # the same one-hot image up to 1e-200
    a = rng.random((8, 8))
    a[3, 4] = 1e200
    one_hot = np.zeros((8, 8))
    one_hot[3, 4] = 1.0
    assert st.ssim(a, a + 1.0) == pytest.approx(
        st.ssim(one_hot, one_hot, data_range=1.0), abs=1e-12)


def test_kl_divergence_properties():
    rng = np.random.default_rng(3)
    x = rng.normal(size=1000)
    assert st.kl_divergence(x, x) == 0.0
    assert st.kl_divergence(np.full(5, 2.0), np.full(3, 2.0)) == 0.0
    assert st.kl_divergence(rng.random(500), 10.0 + rng.random(500)) > 5.0
    for _ in range(100):
        p = rng.normal(size=200)
        q = rng.normal(loc=rng.uniform(-1, 1), size=200)
        assert st.kl_divergence(p, q) >= -1e-12
    with pytest.raises(InvalidArgumentError):
        st.kl_divergence(np.zeros(0), np.ones(4))


def test_metrics_accept_image_grids():
    ph = st.shepp_logan(16, 16)
    assert st.mse(ph, ph) == 0.0
    assert st.kl_divergence(ph, ph) == 0.0
