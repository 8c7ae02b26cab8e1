"""Noise schedules, guided sampling steps, and blend-weight optimality."""

import numpy as np
import pytest

import stridect as st
from stridect.diffusion import LambdaInputs, _row_selector, cfg_combine
from stridect.errors import (GuidanceClampWarning, InvalidArgumentError,
                             ShapeMismatchError)


def _mc_schedule():
    # hand-built two-step schedule with cumulative signal level exactly 1/4
    return st.NoiseSchedule(np.array([0.0, 0.4, 7.0 / 12.0]))


def _signed_zero_normal(rng, shape):
    """Normal draws with some entries set to +0.0 and some to -0.0."""
    a = rng.normal(size=shape)
    a.flat[::5] = 0.0
    a.flat[2::7] = -0.0
    return a


# The step functions as first written, one whole-array expression each; the
# in-place forms used by the sampler must match them byte for byte.


def _expr_predict_x0(y_t, eps_hat, t, s):
    ab = s.alpha_bar[t]
    return (np.asarray(y_t) - np.sqrt(1.0 - ab) * np.asarray(eps_hat)) / np.sqrt(ab)


def _expr_guidance(y0_hat, y_s, active, lam):
    """The blend for a weight already clamped into [0, 1]."""
    if lam == 0.0:
        return np.asarray(y0_hat)
    active = np.asarray(active, bool)[:, None]
    if lam == 1.0:
        return np.where(active, y_s, y0_hat)
    return np.where(active, y0_hat + lam * (y_s - y0_hat), y0_hat)


def _expr_ddim(y0_tilde, eps_hat, t_prev, s, sigma_t=0.0, rng=None):
    ab_prev = s.alpha_bar[t_prev]
    out = np.sqrt(ab_prev) * y0_tilde + np.sqrt(1.0 - ab_prev) * eps_hat
    if sigma_t > 0.0:
        out = out + sigma_t * rng.standard_normal(out.shape)
    return out


# ---------------------------------------------------------------- schedules


def test_linear_schedule_defaults():
    s = st.linear_schedule()
    assert s.T == 1000
    assert s.beta[0] == 0.0
    assert s.beta[1] == pytest.approx(1e-4)
    assert s.beta[-1] == pytest.approx(2e-2)
    assert s.alpha_bar[0] == 1.0
    assert np.all(np.diff(s.alpha_bar) < 0)


def test_schedule_derives_horizon_and_alpha_bar_from_beta():
    beta = np.array([0.0, 0.1, 0.25, 0.3])
    s = st.NoiseSchedule(beta)
    assert s.T == 3
    assert s.alpha_bar.tobytes() == np.cumprod(1.0 - beta).tobytes()
    for arr in (s.beta, s.alpha_bar):
        with pytest.raises(ValueError):
            arr[1] = 0.5
    with pytest.raises(TypeError):
        st.NoiseSchedule(beta, alpha_bar=np.cumprod(1.0 - beta))


def test_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        st.NoiseSchedule(np.array([0.1, 0.2, 0.3]))  # beta[0] != 0
    with pytest.raises(InvalidArgumentError):
        st.NoiseSchedule(np.array([0.0, 0.3, 0.2]))  # not increasing
    with pytest.raises(InvalidArgumentError):
        st.NoiseSchedule(np.array([0.0, 0.5, 1.0]))  # beta == 1
    with pytest.raises(InvalidArgumentError):
        st.NoiseSchedule(np.zeros((2, 2)))  # not a ladder
    with pytest.raises(InvalidArgumentError):
        st.NoiseSchedule(np.array([0.0, 1e-17]))  # alpha_bar rounds to 1


# ---------------------------------------------------------- forward process


def test_forward_noising_t0_exact():
    rng = np.random.default_rng(0)
    y0 = np.arange(12.0).reshape(3, 4)
    y_t, eps = st.forward_noising(y0, 0, _mc_schedule(), rng)
    assert np.array_equal(y_t, y0)
    assert eps.shape == y0.shape


def test_forward_noising_determinism():
    s = _mc_schedule()
    y0 = np.linspace(-1, 1, 20).reshape(4, 5)
    a = st.forward_noising(y0, 2, s, np.random.default_rng(42))
    b = st.forward_noising(y0, 2, s, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_forward_noising_t_range():
    s = _mc_schedule()
    rng = np.random.default_rng(0)
    for bad in (-1, 3):
        with pytest.raises(InvalidArgumentError):
            st.forward_noising(np.zeros(4), bad, s, rng)


def test_forward_noising_moments():
    # alpha_bar(2) = 0.6 * (5/12) = 1/4, so y_t ~ N(y0/2, 3/4)
    s = _mc_schedule()
    assert s.alpha_bar[2] == pytest.approx(0.25, abs=1e-15)
    y0 = np.full(100000, 2.0)
    y_t, _ = st.forward_noising(y0, 2, s, np.random.default_rng(7))
    assert y_t.mean() == pytest.approx(1.0, abs=0.02)
    assert y_t.std() == pytest.approx(np.sqrt(0.75), rel=0.02)


def test_predict_x0_roundtrip():
    s = st.linear_schedule(T=50)
    rng = np.random.default_rng(3)
    y0 = rng.normal(size=(6, 7))
    for t in (1, 10, 25, 50):
        y_t, eps = st.forward_noising(y0, t, s, rng)
        back = st.predict_x0(y_t, eps, t, s)
        assert np.max(np.abs(back - y0)) <= 1e-5


def test_predict_x0_matches_expression_bytes():
    s = st.linear_schedule(T=50)
    rng = np.random.default_rng(4)
    y_t = _signed_zero_normal(rng, (6, 7))
    eps = _signed_zero_normal(rng, (6, 7))
    for t in (0, 1, 10, 50):
        out = st.predict_x0(y_t, eps, t, s)
        assert out.tobytes() == _expr_predict_x0(y_t, eps, t, s).tobytes()
    # the prediction may be handed the array it was predicted from
    assert (st.predict_x0(y_t, y_t, 7, s).tobytes()
            == _expr_predict_x0(y_t, y_t, 7, s).tobytes())


# ---------------------------------------------------------------- guidance


def test_guidance_weight_values():
    g = st.GuidanceConfig(mode="temporal", nu=1.0)
    assert st.guidance_weight(1000, g, 1000) == 1.0
    assert st.guidance_weight(0, g, 1000) == 0.0
    g2 = st.GuidanceConfig(mode="temporal", nu=0.8)
    assert st.guidance_weight(500, g2, 1000) == pytest.approx(0.4)
    gf = st.GuidanceConfig(mode="fixed", nu=0.3)
    weights = [st.guidance_weight(t, gf, 1000) for t in range(1001)]
    assert all(type(w) is float and w == 0.3 for w in weights)
    assert type(st.guidance_weight(500, g2, 1000)) is float
    with pytest.raises(InvalidArgumentError, match="t must be >= 0"):
        st.guidance_weight(-1, gf, 1000)


def test_guidance_weight_monotone_and_bounded():
    g = st.GuidanceConfig(mode="temporal", nu=0.7)
    w = [st.guidance_weight(t, g, 100) for t in range(101)]
    assert np.all(np.diff(w) >= 0)
    assert max(w) <= 0.7


def test_guidance_config_validation():
    assert st.GuidanceConfig(mode="fixed").nu == 1.0
    for mode in ("temporal", "fixed"):
        for nu in (1.5, -0.1, float("nan")):
            with pytest.raises(InvalidArgumentError, match="nu"):
                st.GuidanceConfig(mode=mode, nu=nu)
    with pytest.raises(InvalidArgumentError):
        st.GuidanceConfig(mode="sometimes")
    # the closed-form weight and its grid-search oracle need the reference
    # sinogram; they are analysis, not guidance modes
    for mode in ("optimal-oracle", "optimal-closed-form"):
        with pytest.raises(InvalidArgumentError, match="guidance mode"):
            st.GuidanceConfig(mode=mode)
    with pytest.raises(TypeError):
        st.GuidanceConfig(mode="fixed", fixed_lambda=0.3)


def test_apply_sparse_guidance_blend():
    gen = np.full((4, 3), 2.0)
    obs = np.full((4, 3), 4.0)
    m = st.make_sparse_mask(4, 2).active
    out = st.apply_sparse_guidance(gen, obs, m, 0.5)
    assert np.all(out[m] == 3.0)
    assert np.array_equal(out[~m], gen[~m])
    assert np.array_equal(st.apply_sparse_guidance(gen, obs, m, 0.0), gen)
    one = st.apply_sparse_guidance(gen, obs, m, 1.0)
    assert np.array_equal(one[m], obs[m])
    rng = np.random.default_rng(2)
    gen = _signed_zero_normal(rng, (9, 4))
    obs = _signed_zero_normal(rng, (9, 4))
    uneven = np.zeros(9, bool)
    uneven[[0, 1, 5]] = True
    for m in (st.make_sparse_mask(9, 3).active, uneven, np.zeros(9, bool)):
        for lam in (0.0, 0.3, 0.5, 1.0):
            out = st.apply_sparse_guidance(gen, obs, m, lam)
            assert out.tobytes() == _expr_guidance(gen, obs, m, lam).tobytes()
    with pytest.raises(ShapeMismatchError):
        st.apply_sparse_guidance(gen, obs, m[:-1], 0.5)
    # y_s must have y0_hat's shape, also where only its flagged rows are read
    for shape in ((12, 4), (6, 4), (9, 1)):
        for m in (st.make_sparse_mask(9, 3).active, uneven):
            for lam in (0.0, 0.5):
                with pytest.raises(ShapeMismatchError, match=rf"\({shape[0]}, {shape[1]}\)"
                                                             r".*\(9, 4\)"):
                    st.apply_sparse_guidance(gen, np.zeros(shape), m, lam)


def test_row_selector_is_a_slice_for_every_stride_mask():
    # a slice makes x[sel] a view, so guidance gathers and scatters nothing
    for n, r in [(12, 3), (180, 3), (7, 7), (5, 1), (10, 4), (10, 6)]:
        active = st.make_sparse_mask(n, r).active
        sel = _row_selector(active)
        assert isinstance(sel, slice)
        assert np.array_equal(np.arange(n)[sel], np.flatnonzero(active))
    uneven = np.zeros(6, bool)
    uneven[[0, 1, 5]] = True
    assert np.array_equal(_row_selector(uneven), [0, 1, 5])
    assert np.arange(6)[_row_selector(np.zeros(6, bool))].size == 0


def test_apply_sparse_guidance_clamps():
    gen = np.zeros((2, 2))
    obs = np.ones((2, 2))
    m = st.make_sparse_mask(2, 1).active
    with pytest.warns(GuidanceClampWarning):
        hi = st.apply_sparse_guidance(gen, obs, m, 1.2)
    assert np.array_equal(hi, obs)
    with pytest.warns(GuidanceClampWarning):
        lo = st.apply_sparse_guidance(gen, obs, m, -0.5)
    assert np.array_equal(lo, gen)
    assert hi.tobytes() == _expr_guidance(gen, obs, m, 1.0).tobytes()
    assert lo.tobytes() == _expr_guidance(gen, obs, m, 0.0).tobytes()
    with pytest.raises(InvalidArgumentError):
        st.apply_sparse_guidance(gen, obs, m, np.nan)


# ------------------------------------------------------------ sampler steps


def test_ddim_final_step_returns_estimate():
    s = st.linear_schedule(T=10)
    rng = np.random.default_rng(1)
    y_t = rng.normal(size=(3, 3))
    y0_tilde = rng.normal(size=(3, 3))
    eps_hat = rng.normal(size=(3, 3))
    out = st.ddim_step(y_t, y0_tilde, eps_hat, 1, 0, s)
    assert np.allclose(out, y0_tilde, atol=1e-12)


def test_ddim_step_determinism_and_validation():
    s = st.linear_schedule(T=10)
    y = np.ones((2, 2))
    a = st.ddim_step(y, y, y, 5, 3, s, sigma_t=0.1, rng=np.random.default_rng(9))
    b = st.ddim_step(y, y, y, 5, 3, s, sigma_t=0.1, rng=np.random.default_rng(9))
    assert np.array_equal(a, b)
    rng = np.random.default_rng(3)
    y0 = _signed_zero_normal(rng, (5, 6))
    eps = _signed_zero_normal(rng, (5, 6))
    for t, t_prev, sigma in ((5, 3, 0.0), (1, 0, 0.0), (5, 3, 0.1), (10, 0, 0.0)):
        out = st.ddim_step(eps, y0, eps, t, t_prev, s, sigma_t=sigma,
                           rng=np.random.default_rng(9))
        expect = _expr_ddim(y0, eps, t_prev, s, sigma, np.random.default_rng(9))
        assert out.tobytes() == expect.tobytes()
    with pytest.raises(InvalidArgumentError):
        st.ddim_step(y, y, y, 3, 5, s)
    with pytest.raises(InvalidArgumentError):
        st.ddim_step(y, y, y, 5, 3, s, sigma_t=-0.1, rng=np.random.default_rng(0))
    with pytest.raises(InvalidArgumentError):
        st.ddim_step(y, y, y, 5, 3, s, sigma_t=0.1)  # stochastic without rng


def test_deterministic_sampler_inverts_forward():
    # with the true noise supplied as the prediction, the reverse ladder is
    # exact at every stride length
    s = st.linear_schedule()
    ts = st.ddim_times(s.T, 100)
    rng = np.random.default_rng(123)
    for _ in range(20):
        y0 = rng.normal(size=(4, 5))
        model = st.ExactNoiseDenoiser(y0, s)
        y, _ = st.forward_noising(y0, s.T, s, rng)
        for t, t_prev in zip(ts[:-1], ts[1:]):
            eps_hat = model.predict_eps(y, t)
            y0_tilde = st.predict_x0(y, eps_hat, t, s)
            y = st.ddim_step(y, y0_tilde, eps_hat, t, t_prev, s)
        assert np.max(np.abs(y - y0)) <= 1e-4


def test_cfg_combine():
    c = np.full((2, 2), 3.0)
    u = np.full((2, 2), 1.0)
    assert np.array_equal(cfg_combine(c, u, 0.0), c)
    assert np.array_equal(cfg_combine(c, c, 5.0), c)
    assert np.allclose(cfg_combine(c, u, 2.0), 7.0)


# ----------------------------------------------------------- optimal blend


def _objective(lam, li):
    # expected squared error of the blend, up to a lambda-free constant
    return ((1 - lam) ** 2 * li.a**2 + lam**2 * li.b**2
            + 2 * lam * (1 - lam) * li.c)


def test_lambda_inputs_validation():
    with pytest.raises(InvalidArgumentError):
        LambdaInputs(a=1.0, b=1.0, c=1.5)  # breaks |c|<=ab
    with pytest.raises(InvalidArgumentError):
        LambdaInputs(a=np.inf, b=1.0, c=0.0)
    with pytest.raises(InvalidArgumentError, match="norms"):
        LambdaInputs(a=1.0, b=-1.0, c=0.0)
    with pytest.raises(InvalidArgumentError, match="equal length"):
        LambdaInputs.from_vectors(np.ones(3), np.ones(4))
    with pytest.raises(InvalidArgumentError, match="finite"):
        LambdaInputs.from_vectors(np.ones(3), [1.0, np.nan, 1.0])


def test_lambda_inputs_from_vectors_clamps_overshoot():
    u = np.array([1.0, 0.0])
    li = LambdaInputs.from_vectors(u, u)
    assert li.c <= li.a * li.b + 1e-12


def test_optimal_lambda_closed_form_examples():
    half = LambdaInputs(a=1.0, b=1.0, c=0.0)
    assert st.optimal_lambda(half) == pytest.approx(0.5)
    sure = LambdaInputs(a=1.0, b=0.0, c=0.0)
    assert st.optimal_lambda(sure) == 1.0
    keep = LambdaInputs(a=0.0, b=1.0, c=0.0)
    assert st.optimal_lambda(keep) == 0.0
    degen = LambdaInputs(a=0.0, b=0.0, c=0.0)
    assert st.optimal_lambda(degen) == 0.0


def test_optimal_lambda_never_beaten_on_grid():
    rng = np.random.default_rng(21)
    grid = np.linspace(0.0, 1.0, 10001)
    for _ in range(300):
        a, b = rng.uniform(0, 2, size=2)
        c = rng.uniform(-1, 1) * a * b
        li = LambdaInputs(a=a, b=b, c=c)
        lam = st.optimal_lambda(li)
        assert 0.0 <= lam <= 1.0
        best = _objective(grid, li).min()
        assert _objective(lam, li) <= best + 1e-9


def test_oracle_agrees_with_closed_form():
    rng = np.random.default_rng(22)
    for _ in range(200):
        a, b = rng.uniform(0, 2, size=2)
        c = rng.uniform(-1, 1) * a * b
        li = LambdaInputs(a=a, b=b, c=c)
        assert abs(st.optimal_lambda_oracle(li) - st.optimal_lambda(li)) <= 1e-4


def test_oracle_validation():
    li = LambdaInputs(a=1.0, b=1.0, c=0.0)
    with pytest.raises(InvalidArgumentError):
        st.optimal_lambda_oracle(li, grid_step=0.0)
    with pytest.raises(InvalidArgumentError):
        st.optimal_lambda_oracle(li, grid_step=1.5)


def test_worst_case_bound_examples():
    assert st.lambda_worst_case_bound(2.0, 1.0) == 1.0
    assert st.lambda_worst_case_bound(1.0, 2.0) == 0.0
    assert st.lambda_worst_case_bound(1.0, 1.0) == 0.0
    with pytest.raises(InvalidArgumentError):
        st.lambda_worst_case_bound(-1.0, 1.0)


def test_worst_case_bound_matches_scan():
    # the adversarial objective is a squared line, so an endpoint always wins
    rng = np.random.default_rng(23)
    grid = np.linspace(0.0, 1.0, 100001)
    for _ in range(100):
        a, b = rng.uniform(0, 3, size=2)
        lam = st.lambda_worst_case_bound(a, b)
        assert lam in (0.0, 1.0)
        vals = ((1 - grid) * a + grid * b) ** 2
        best = grid[np.argmin(vals)]
        assert lam == best
