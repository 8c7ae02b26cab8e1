"""Analytic denoisers, the tiny conv net, its gradients, and training."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import stridect as st
from stridect.denoiser import (
    Adam,
    TinyEpsNet,
    TinyNetParams,
    TinyScoreNet,
    _conv,
    _stack_taps,
    backward_tiny,
    forward_tiny,
    grad_check,
    init_tiny_net,
    loss_and_grads,
    ve_sigma,
)
from stridect.errors import (
    InvalidArgumentError,
    NumericalAbortError,
    ShapeMismatchError,
)


# ------------------------------------------------------------- analytic side


def test_analytic_eps_unit_prior():
    # mu=0, v=1: posterior mean is sqrt(ab) y, so eps_hat = sqrt(1-ab) y
    s = st.linear_schedule(T=20)
    rng = np.random.default_rng(0)
    y = rng.normal(size=(5, 6))
    for t in (1, 10, 20):
        out = st.AnalyticGaussianDenoiser(0.0, 1.0, s).predict_eps(y, t)
        assert np.allclose(out, np.sqrt(1.0 - s.alpha_bar[t]) * y, rtol=1e-12)


def test_analytic_eps_point_prior():
    # v=0 collapses the posterior onto the prior mean
    s = st.linear_schedule(T=20)
    rng = np.random.default_rng(1)
    y = rng.normal(size=(4, 4))
    mu = rng.normal(size=(4, 4))
    ab = s.alpha_bar[10]
    out = st.AnalyticGaussianDenoiser(mu, 0.0, s).predict_eps(y, 10)
    expect = (y - np.sqrt(ab) * mu) / np.sqrt(1.0 - ab)
    assert np.allclose(out, expect, atol=1e-9)


def test_analytic_eps_validation_and_t0():
    s = st.linear_schedule(T=5)
    y = np.ones((2, 2))
    with pytest.raises(InvalidArgumentError):
        st.AnalyticGaussianDenoiser(0.0, -0.1, s).predict_eps(y, 3)
    with pytest.raises(InvalidArgumentError):
        st.AnalyticGaussianDenoiser(0.0, 1.0, s).predict_eps(y, 6)
    assert not st.AnalyticGaussianDenoiser(0.0, 1.0, s).predict_eps(y, 0).any()


def test_analytic_eps_matches_bayes_posterior():
    # the x0 implied by the predicted noise must be the Gaussian posterior mean
    s = st.linear_schedule(T=50)
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = int(rng.integers(1, 51))
        mu = rng.normal(size=(3, 3))
        v = float(rng.uniform(0.01, 4.0))
        y = rng.normal(size=(3, 3))
        eps_hat = st.AnalyticGaussianDenoiser(mu, v, s).predict_eps(y, t)
        x0 = st.predict_x0(y, eps_hat, t, s)
        ab = s.alpha_bar[t]
        bayes = (np.sqrt(ab) * v * y + (1 - ab) * mu) / (ab * v + 1 - ab)
        assert np.max(np.abs(x0 - bayes)) <= 1e-10


def _first_analytic_eps(y_t, t, s, mu, v):
    """The posterior noise prediction as first written, one expression,
    through the posterior mean."""
    y_t = np.asarray(y_t, dtype=np.float64)
    if t == 0:
        return np.zeros_like(y_t)
    ab = s.alpha_bar[t]
    sab = np.sqrt(ab)
    mean_post = (sab * v * y_t + (1.0 - ab) * np.asarray(mu)) / (ab * v + 1.0 - ab)
    return (y_t - sab * mean_post) / np.sqrt(1.0 - ab)


def _expr_analytic_eps(y_t, t, s, mu, v):
    """The posterior noise prediction in closed form, one expression:
    y_t k - mu (sqrt(ab) k) with k = sqrt(1 - ab) / (ab v + 1 - ab)."""
    y_t = np.asarray(y_t, dtype=np.float64)
    if t == 0:
        return np.zeros_like(y_t)
    ab = float(s.alpha_bar[t])
    k = math.sqrt(1.0 - ab) / (ab * v + 1.0 - ab)
    return y_t * k - np.asarray(mu, dtype=np.float64) * (math.sqrt(ab) * k)


def test_analytic_eps_matches_expression_bytes():
    s = st.linear_schedule(T=20)
    rng = np.random.default_rng(5)
    y = rng.normal(size=(6, 5))
    mu = rng.normal(size=(6, 5))
    y.flat[::4] = -0.0
    mu.flat[1::3] = -0.0
    mu.flat[2::3] = 0.0
    for prior_mean in (mu, 0.0, -0.0, mu[0]):
        for v in (0.0, 1e-3, 0.7):
            model = st.AnalyticGaussianDenoiser(prior_mean, v, s)
            for t in (0, 1, 10, 20):
                expect = _expr_analytic_eps(y, t, s, prior_mean, v).tobytes()
                fresh = st.AnalyticGaussianDenoiser(prior_mean, v, s)
                assert fresh.predict_eps(y, t).tobytes() == expect
                # the model reuses its scratch array from call to call
                assert model.predict_eps(y, t).tobytes() == expect
                assert model.predict_eps(y, t).tobytes() == expect
    frozen = y.copy()
    frozen.setflags(write=False)
    st.AnalyticGaussianDenoiser(mu, 0.5, s).predict_eps(frozen, 3)  # input not written


def _peak_gap(new, old):
    """Largest difference as a fraction of the reference's peak."""
    return np.max(np.abs(new - old)) / np.max(np.abs(old))


def test_analytic_eps_is_close_to_the_first_formula():
    # the closed form reorders the arithmetic, so it agrees with the route
    # through the posterior mean to rounding on every step of the schedule
    s = st.linear_schedule()
    rng = np.random.default_rng(8)
    y = rng.normal(size=(12, 16))
    mu = rng.normal(size=(12, 16))
    for v in (0.0, 1e-3, 0.05, 0.7):
        model = st.AnalyticGaussianDenoiser(mu, v, s)
        worst = max(_peak_gap(model.predict_eps(y, t), _first_analytic_eps(y, t, s, mu, v))
                    for t in range(1, s.T + 1))
        assert worst <= 1e-11, (v, worst)


def test_gaussian_score():
    y = np.array([[1.0, 3.0]])
    out = st.AnalyticGaussianScore(1.0, 2.0).score(y, 0.5)
    assert np.allclose(out, [[0.0, -1.0]])
    # a var that is not positive is refused when the score is built
    for var in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidArgumentError, match="must be positive"):
            st.AnalyticGaussianScore(0.0, var)
    model = st.AnalyticGaussianScore(np.zeros((1, 2)), 0.5)
    assert np.array_equal(model.score(y, 0.3), model.score(y, 0.9))


def test_coupled_denoiser_mix_zero_matches_plain():
    s = st.linear_schedule(T=10)
    rng = np.random.default_rng(3)
    mu = rng.normal(size=(6, 5))
    y = rng.normal(size=(6, 5))
    plain = st.AnalyticGaussianDenoiser(mu, 0.3, s)
    coupled = st.CoupledGaussianDenoiser(mu, 0.3, s, mix=0.0)
    assert np.array_equal(plain.predict_eps(y, 7), coupled.predict_eps(y, 7))


def test_coupled_denoiser_spreads_across_rows():
    # a single hot row must leak into its periodic neighbors through x0
    s = st.linear_schedule(T=10)
    y = np.zeros((6, 4))
    y[2] = 5.0
    model = st.CoupledGaussianDenoiser(np.zeros((6, 4)), 1.0, s, mix=0.5)
    t = 5
    x0 = st.predict_x0(y, model.predict_eps(y, t), t, s)
    assert np.all(np.abs(x0[1]) > 0) and np.all(np.abs(x0[3]) > 0)
    assert np.max(np.abs(x0[[0, 4, 5]])) == 0.0
    with pytest.raises(InvalidArgumentError):
        st.CoupledGaussianDenoiser(0.0, 1.0, s, mix=1.5)


def test_exact_noise_denoiser_recovers_noise():
    s = st.linear_schedule(T=30)
    rng = np.random.default_rng(4)
    y0 = rng.normal(size=(4, 7))
    model = st.ExactNoiseDenoiser(y0, s)
    for t in (1, 15, 30):
        eps = rng.normal(size=(4, 7))
        y_t = np.sqrt(s.alpha_bar[t]) * y0 + np.sqrt(1 - s.alpha_bar[t]) * eps
        assert np.max(np.abs(model.predict_eps(y_t, t) - eps)) <= 1e-12


def _first_coupled_eps(y_t, t, s, mu, v, mix):
    """The coupled noise prediction as first written: the posterior mean
    mixed with its periodic row neighbors."""
    y_t = np.asarray(y_t, dtype=np.float64)
    if t == 0:
        return np.zeros_like(y_t)
    ab = s.alpha_bar[t]
    sab = np.sqrt(ab)
    x0 = (sab * v * y_t + (1.0 - ab) * np.asarray(mu, dtype=np.float64)) / (
        ab * v + 1.0 - ab
    )
    neighbors = 0.5 * (np.roll(x0, 1, axis=0) + np.roll(x0, -1, axis=0))
    x0 = (1.0 - mix) * x0 + mix * neighbors
    return (y_t - sab * x0) / np.sqrt(1.0 - ab)


def _expr_coupled_eps(y_t, t, s, mu, v, mix):
    """The coupled noise prediction in closed form: the plain noise minus
    sqrt(ab) mix / sqrt(1 - ab) (nb(x0) - x0), where nb averages the two
    periodic row neighbors of the posterior mean x0; mix 0 is the plain noise."""
    eps = _expr_analytic_eps(y_t, t, s, mu, v)
    if t == 0 or mix == 0.0:
        return eps
    ab = float(s.alpha_bar[t])
    sab = math.sqrt(ab)
    x0 = (np.asarray(y_t, dtype=np.float64) * (sab * v)
          + np.asarray(mu, dtype=np.float64) * (1.0 - ab)) / (ab * v + 1.0 - ab)
    d = (np.roll(x0, 1, axis=0) + np.roll(x0, -1, axis=0)) * 0.5 - x0
    return eps - d * (sab * mix / math.sqrt(1.0 - ab))


def _expr_exact_eps(y_t, t, s, y0):
    y_t = np.asarray(y_t, dtype=np.float64)
    if t == 0:
        return np.zeros_like(y_t)
    ab = s.alpha_bar[t]
    return (y_t - np.sqrt(ab) * np.asarray(y0, dtype=np.float64)) / np.sqrt(1.0 - ab)


def _signed_zero_case(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(6, 5))
    mu = rng.normal(size=(6, 5))
    y.flat[::4] = -0.0
    mu.flat[1::3] = -0.0
    mu.flat[2::3] = 0.0
    return y, mu


def test_coupled_eps_matches_expression_bytes():
    s = st.linear_schedule(T=20)
    y, mu = _signed_zero_case(6)
    for prior_mean in (mu, 0.0, -0.0, mu[0]):
        for v in (0.0, 1e-3, 0.7):
            for mix in (0.0, 0.3, 1.0):
                model = st.CoupledGaussianDenoiser(prior_mean, v, s, mix=mix)
                for t in (0, 1, 10, 20):
                    expect = _expr_coupled_eps(y, t, s, prior_mean, v, mix).tobytes()
                    assert model.predict_eps(y, t).tobytes() == expect
                    assert model.predict_eps(y, t).tobytes() == expect


def test_coupled_eps_is_close_to_the_first_formula():
    s = st.linear_schedule()
    rng = np.random.default_rng(9)
    y = rng.normal(size=(12, 16))
    mu = rng.normal(size=(12, 16))
    for v in (0.0, 1e-3, 0.05, 0.7):
        for mix in (0.3, 1.0):
            model = st.CoupledGaussianDenoiser(mu, v, s, mix=mix)
            worst = max(_peak_gap(model.predict_eps(y, t),
                                  _first_coupled_eps(y, t, s, mu, v, mix))
                        for t in range(1, s.T + 1))
            assert worst <= 1e-11, (v, mix, worst)


def test_coupled_rejects_negative_prior_var():
    # both Gaussian denoisers refuse a negative or nan prior_var when built,
    # not at their first step, so no t reaches a model built with one
    s = st.linear_schedule(T=5)
    for var in (-0.1, float("nan")):
        for cls in (st.AnalyticGaussianDenoiser, st.CoupledGaussianDenoiser):
            with pytest.raises(InvalidArgumentError, match="prior_var"):
                cls(0.0, var, s)
    # the point prior stays valid
    assert not st.CoupledGaussianDenoiser(0.0, 0.0, s).predict_eps(np.ones((3, 2)), 0).any()


def test_exact_eps_matches_expression_bytes():
    s = st.linear_schedule(T=20)
    y, mu = _signed_zero_case(7)
    for y0 in (mu, 0.0, -0.0, mu[0]):
        model = st.ExactNoiseDenoiser(y0, s)
        for t in (0, 1, 10, 20):
            expect = _expr_exact_eps(y, t, s, y0).tobytes()
            assert model.predict_eps(y, t).tobytes() == expect
    # the clean target may have more dimensions than y_t
    model = st.ExactNoiseDenoiser(np.stack([mu, y]), s)
    assert model.predict_eps(y[0], 4).tobytes() == _expr_exact_eps(
        y[0], 4, s, np.stack([mu, y])).tobytes()
    frozen = y.copy()
    frozen.setflags(write=False)
    st.ExactNoiseDenoiser(frozen, s).predict_eps(frozen, 3)  # inputs not written


# ----------------------------------------------------------------- tiny net


def test_param_container():
    p = init_tiny_net(2, 1, hidden=4, seed=0)
    assert p.in_channels == 2 and p.out_channels == 1 and p.hidden == 4
    assert p.n_params == sum(a.size for a in p.as_list())
    q = TinyNetParams.from_list([a.copy() for a in p.as_list()])
    assert all(np.array_equal(a, b) for a, b in zip(p.as_list(), q.as_list()))
    with pytest.raises(InvalidArgumentError):
        TinyNetParams.from_list([np.zeros(2)] * 3)


def test_param_budget():
    assert init_tiny_net(2, 1).n_params < 10_000
    with pytest.raises(InvalidArgumentError):
        init_tiny_net(2, 1, hidden=32)
    for hidden in (0, -1):
        with pytest.raises(InvalidArgumentError, match="hidden"):
            init_tiny_net(2, 1, hidden=hidden)


def test_forward_shape_validation():
    p = init_tiny_net(2, 1, hidden=4)
    with pytest.raises(ShapeMismatchError):
        forward_tiny(p, np.zeros((2, 4, 4)), np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        forward_tiny(p, np.zeros((1, 3, 4, 4)), np.zeros(1))



@pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 2, 1, 4), (1, 1, 1, 1)])
def test_tap_stack_matches_rolled_copies(shape):
    # reference: each tap a periodic np.roll of the input; one-pixel axes wrap
    # onto themselves
    x = np.random.default_rng(0).normal(size=shape)
    b, c, h, w = shape
    for sign in (-1, 1):
        ref = np.stack([np.roll(x, (sign * da, sign * db), axis=(2, 3))
                        for da in (-1, 0, 1) for db in (-1, 0, 1)], axis=2)
        assert np.array_equal(_stack_taps(x, sign), ref.reshape(b, c * 9, h * w))


@pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 2, 1, 4), (1, 1, 1, 1)])
def test_transposed_conv_is_exact_adjoint(shape):
    # <conv(x, w), y> = <x, conv(y, w^T, +1)>: the sign +1 pass is the
    # gradient wrt the input that backward_tiny takes
    rng = np.random.default_rng(1)
    b, c, h, w = shape
    x = rng.normal(size=shape)
    k = rng.normal(size=(4, c, 3, 3))
    y = rng.normal(size=(b, 4, h, w))
    ax = _conv(x, k)[0]
    aty = _conv(y, k.transpose(1, 0, 2, 3), +1)[0]
    assert aty.shape == x.shape
    lhs, rhs = float(np.sum(ax * y)), float(np.sum(x * aty))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    p = init_tiny_net(2, 1, hidden=4, seed=0)
    x = rng.normal(size=(2, 2, 4, 4))
    s = rng.random(2)
    target = rng.normal(size=(2, 1, 4, 4))
    assert grad_check(p, x, s, target) <= 1e-3


def test_gradients_hold_after_training_steps():
    rng = np.random.default_rng(5)
    p = init_tiny_net(2, 1, hidden=4, seed=1)
    x = rng.normal(size=(2, 2, 4, 4))
    s = rng.random(2)
    target = rng.normal(size=(2, 1, 4, 4))
    opt = Adam(p, 1e-2)
    for _ in range(20):
        _, grads = loss_and_grads(p, x, s, target)
        opt.step(p, grads)
    assert grad_check(p, x, s, target) <= 1e-3


def test_backward_is_linear_in_dout():
    rng = np.random.default_rng(6)
    p = init_tiny_net(1, 1, hidden=3, seed=2)
    x = rng.normal(size=(1, 1, 5, 5))
    _, cache = forward_tiny(p, x, np.array([0.4]))
    dout = rng.normal(size=(1, 1, 5, 5))
    g1 = backward_tiny(p, cache, dout)
    g2 = backward_tiny(p, cache, 2.0 * dout)
    for a, b in zip(g1, g2):
        assert np.allclose(2.0 * a, b, rtol=1e-12, atol=1e-300)


def test_zero_everything_gives_zero_grads():
    p = init_tiny_net(1, 1, hidden=3, seed=0)
    for a in p.as_list():
        a[...] = 0.0
    x = np.zeros((1, 1, 4, 4))
    loss, grads = loss_and_grads(p, x, np.zeros(1), np.zeros((1, 1, 4, 4)))
    assert loss == 0.0
    assert all(not g.any() for g in grads)


# ------------------------------------------------------------------ wrappers


def test_eps_net_condition_channel():
    s = st.linear_schedule(T=10)
    p = init_tiny_net(2, 1, hidden=4, seed=3)
    net = TinyEpsNet(p, s)
    assert net.conditional
    rng = np.random.default_rng(7)
    y = rng.normal(size=(6, 6))
    cond = rng.normal(size=(6, 6))
    with_cond = net.predict_eps(y, 5, cond)
    without = net.predict_eps(y, 5, None)
    assert not np.array_equal(with_cond, without)
    # the wrapper is exactly a stacked forward pass
    x = np.stack([y, cond])[None]
    out, _ = forward_tiny(p, x, np.array([0.5]))
    assert np.array_equal(with_cond, out[0, 0])
    with pytest.raises(InvalidArgumentError):
        TinyEpsNet(init_tiny_net(1, 1, hidden=4), s)


def test_eps_net_rejects_t_outside_schedule():
    # the same t rule as the closed-form denoisers: both serve one sampler
    s = st.linear_schedule(T=10)
    net = TinyEpsNet(init_tiny_net(2, 1, hidden=4, seed=3), s)
    y = np.zeros((4, 4))
    for t in (0, 10):
        assert net.predict_eps(y, t).shape == y.shape
    for t in (-3, 11, 50):
        with pytest.raises(InvalidArgumentError, match=f"t={t} outside"):
            net.predict_eps(y, t)


def test_score_net_channel_handling():
    p = init_tiny_net(1, 1, hidden=4, seed=4)
    net = TinyScoreNet(p)
    rng = np.random.default_rng(8)
    y = rng.normal(size=(5, 5))
    flat = net.score(y, 0.1)
    stacked = net.score(y[None], 0.1)
    assert flat.shape == (5, 5)
    assert np.array_equal(flat, stacked[0])
    with pytest.raises(ShapeMismatchError):
        net.score(np.zeros((2, 5, 5)), 0.1)
    with pytest.raises(InvalidArgumentError):
        TinyScoreNet(init_tiny_net(2, 1, hidden=4))


# ------------------------------------------------------------------ training


def _toy_corpus(rng, n=12, shape=(8, 8)):
    return [rng.normal(size=shape) for _ in range(n)]


def test_train_epsilon_deterministic():
    s = st.linear_schedule(T=10)
    data = _toy_corpus(np.random.default_rng(9))
    a_net, a_trace = st.train_epsilon(data, s, epochs=2, steps_per_epoch=3,
                                      hidden=4, seed=11)
    b_net, b_trace = st.train_epsilon(data, s, epochs=2, steps_per_epoch=3,
                                      hidden=4, seed=11)
    assert np.array_equal(a_trace, b_trace)
    assert all(np.array_equal(x, y) for x, y in
               zip(a_net.params.as_list(), b_net.params.as_list()))
    assert np.all(np.isfinite(a_trace))


def test_train_epsilon_condition_rate_matters():
    s = st.linear_schedule(T=10)
    data = _toy_corpus(np.random.default_rng(10))
    off, _ = st.train_epsilon(data, s, epochs=1, steps_per_epoch=4, hidden=4,
                              seed=2, p_cond=0.0)
    on, _ = st.train_epsilon(data, s, epochs=1, steps_per_epoch=4, hidden=4,
                             seed=2, p_cond=1.0)
    assert any(not np.array_equal(x, y) for x, y in
               zip(off.params.as_list(), on.params.as_list()))


def test_train_epsilon_validation():
    s = st.linear_schedule(T=10)
    with pytest.raises(InvalidArgumentError):
        st.train_epsilon([], s)
    with pytest.raises(InvalidArgumentError):
        st.train_epsilon([np.zeros((4, 4))], s, p_cond=1.5)


def test_train_diverges_to_abort_on_huge_lr():
    s = st.linear_schedule(T=10)
    data = _toy_corpus(np.random.default_rng(11), n=4)
    with pytest.raises(NumericalAbortError):
        with np.errstate(all="ignore"):
            st.train_epsilon(data, s, epochs=1, steps_per_epoch=5, lr=1e160,
                             hidden=4, seed=0)


def test_train_score_diverges_to_abort_on_huge_lr():
    data = _toy_corpus(np.random.default_rng(11), n=4)
    with pytest.raises(NumericalAbortError, match="non-finite training loss"):
        with np.errstate(all="ignore"):
            st.train_score(data, epochs=1, steps_per_epoch=5, lr=1e160, hidden=4, seed=0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_trainers_reject_a_bad_learning_rate_before_any_step(lr):
    # nan or inf used to train every parameter to nan, and -1 to step uphill
    data = _toy_corpus(np.random.default_rng(11), n=4)
    eps_params, score_params = init_tiny_net(2, 1, hidden=4), init_tiny_net(1, 1, hidden=4)
    kept = [a.copy() for a in eps_params.as_list() + score_params.as_list()]
    with pytest.raises(InvalidArgumentError, match="lr must be finite and > 0"):
        st.train_epsilon(data, st.linear_schedule(T=10), lr=lr, params=eps_params)
    with pytest.raises(InvalidArgumentError, match="lr must be finite and > 0"):
        st.train_score(data, lr=lr, params=score_params)
    now = eps_params.as_list() + score_params.as_list()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(now, kept))


def test_train_score_rejects_empty_corpus():
    with pytest.raises(InvalidArgumentError, match="empty training corpus"):
        st.train_score([])


def test_ve_sigma_geometric():
    sig = ve_sigma(np.array([0.0, 0.5, 1.0]))
    assert sig[0] == pytest.approx(1e-2)
    assert sig[2] == pytest.approx(1.0)
    assert sig[1] == pytest.approx(np.sqrt(1e-2 * 1.0))
    assert np.all(np.diff(ve_sigma(np.linspace(0, 1, 64))) > 0)
    assert type(ve_sigma(0.5)) is float


def test_train_score_learns_gaussian_score():
    # unit-normal corpus: the true score near t=0 is -y, so the cosine
    # between prediction and -y should approach 1 after a short run
    rng = np.random.default_rng(12)
    data = _toy_corpus(rng, n=16)
    net, trace = st.train_score(data, epochs=40, steps_per_epoch=10, lr=1e-3, hidden=8,
                                seed=3)
    assert trace[-1] < trace[0]
    eval_rng = np.random.default_rng(123)
    cosines = []
    for _ in range(8):
        y = eval_rng.normal(size=(8, 8))
        sc = net.score(y, 0.02)
        cosines.append(np.sum(sc * -y) / (np.linalg.norm(sc) * np.linalg.norm(y)))
    assert min(cosines) >= 0.85
    assert np.mean(cosines) >= 0.9


def test_train_score_deterministic():
    data = _toy_corpus(np.random.default_rng(13), n=6)
    a, ta = st.train_score(data, epochs=2, steps_per_epoch=3, hidden=4, seed=5)
    b, tb = st.train_score(data, epochs=2, steps_per_epoch=3, hidden=4, seed=5)
    assert np.array_equal(ta, tb)
    assert all(np.array_equal(x, y) for x, y in
               zip(a.params.as_list(), b.params.as_list()))


def _loop_train_epsilon(data, sched, epochs, steps_per_epoch, lr=1e-4, p_cond=0.2,
                        view_set=(6, 8, 10, 12), batch_size=4, hidden=4, seed=0):
    """The noise-predictor training loop as first written, inline."""
    data = [np.asarray(d, dtype=np.float64) for d in data]
    n_views = data[0].shape[0]
    rng = np.random.default_rng(seed)
    params = init_tiny_net(2, 1, hidden=hidden, seed=seed)
    opt = Adam(params, lr)
    trace = []
    for _ in range(epochs):
        losses = []
        for _ in range(steps_per_epoch):
            idx = rng.integers(0, len(data), batch_size)
            t = rng.integers(1, sched.T + 1, batch_size)
            y0 = np.stack([data[i] for i in idx])
            eps = rng.standard_normal(y0.shape)
            ab = sched.alpha_bar[t][:, None, None]
            y_t = np.sqrt(ab) * y0 + np.sqrt(1.0 - ab) * eps
            use_cond = rng.random(batch_size) < p_cond
            strides = rng.integers(0, len(view_set), batch_size)
            cond = np.zeros_like(y0)
            for b in range(batch_size):
                if use_cond[b]:
                    rows = (np.arange(n_views) % view_set[strides[b]]) == 0
                    cond[b] = np.where(rows[:, None], y0[b], 0.0)
            x = np.stack([y_t, cond], axis=1)
            out, cache = forward_tiny(params, x, t / sched.T)
            diff = out - eps[:, None]
            loss = float(np.mean(diff * diff))
            opt.step(params, backward_tiny(params, cache, (2.0 / diff.size) * diff))
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return params, np.asarray(trace)


def _loop_train_score(data, epochs, steps_per_epoch, lr=1e-3, batch_size=4, hidden=4,
                      seed=0):
    """The score-matching training loop as first written, inline."""
    data = [np.asarray(d, dtype=np.float64) for d in data]
    data = [d[None] if d.ndim == 2 else d for d in data]
    channels = data[0].shape[0]
    rng = np.random.default_rng(seed)
    params = init_tiny_net(channels, channels, hidden=hidden, seed=seed)
    opt = Adam(params, lr)
    trace = []
    for _ in range(epochs):
        losses = []
        for _ in range(steps_per_epoch):
            idx = rng.integers(0, len(data), batch_size)
            y = np.stack([data[i] for i in idx])
            t = 0.02 + (1.0 - 0.02) * rng.random(batch_size)
            sigma = ve_sigma(t)[:, None, None, None]
            z = rng.standard_normal(y.shape)
            out, cache = forward_tiny(params, y + sigma * z, t)
            resid = sigma * out + z
            loss = float(np.mean(resid * resid))
            dout = (2.0 / resid.size) * resid * sigma
            opt.step(params, backward_tiny(params, cache, dout))
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return params, np.asarray(trace)


def _same_bytes(params, trace, net, net_trace):
    assert net_trace.tobytes() == trace.tobytes()
    for a, b in zip(net.params.as_list(), params.as_list()):
        assert a.tobytes() == b.tobytes()


def test_train_epsilon_matches_inline_loop_bytes():
    s = st.linear_schedule(T=10)
    data = _toy_corpus(np.random.default_rng(14))
    for p_cond in (0.2, 1.0):
        net, trace = st.train_epsilon(data, s, epochs=2, steps_per_epoch=3,
                                      hidden=4, seed=11, p_cond=p_cond)
        _same_bytes(*_loop_train_epsilon(data, s, 2, 3, hidden=4, seed=11,
                                         p_cond=p_cond), net, trace)


def test_train_score_matches_inline_loop_bytes():
    rng = np.random.default_rng(15)
    for data in (_toy_corpus(rng, n=6), [rng.normal(size=(3, 6, 6)) for _ in range(4)]):
        net, trace = st.train_score(data, epochs=2, steps_per_epoch=3, hidden=4, seed=5)
        _same_bytes(*_loop_train_score(data, 2, 3, hidden=4, seed=5), net, trace)


# ------------------------------------------------------------- serialization


def test_params_roundtrip(tmp_path):
    p = init_tiny_net(2, 1, hidden=5, seed=6)
    path = tmp_path / "net.bin"
    st.save_params(p, path)
    q = st.load_params(path)
    for a, b in zip(p.as_list(), q.as_list()):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_params_load_errors(tmp_path):
    p = init_tiny_net(1, 1, hidden=3, seed=7)
    path = tmp_path / "net.bin"
    st.save_params(p, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAMODL" + raw[8:])
    with pytest.raises(InvalidArgumentError):
        st.load_params(bad)

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:-16])
    with pytest.raises(InvalidArgumentError):
        st.load_params(short)

    extra = tmp_path / "extra.bin"
    extra.write_bytes(raw + b"\x00")
    with pytest.raises(InvalidArgumentError):
        st.load_params(extra)


def _save_arrays(arrays, path):
    """Write arrays in the model-file format, whatever their shapes."""
    st.save_params(SimpleNamespace(as_list=lambda: arrays), path)


def test_params_load_rejects_layers_that_do_not_chain(tmp_path):
    # hidden 4, two input channels, one output channel
    good = init_tiny_net(2, 1, hidden=4, seed=0).as_list()
    names = ("w1", "b1", "tw", "tb", "w2", "b2", "w3", "b3")
    wrong = {"w1": (4, 2, 9), "b1": (3,), "tw": (4, 1), "tb": (), "w2": (3, 3, 3, 3),
             "b2": (5,), "w3": (1, 3, 3, 3), "b3": (2,)}
    path = tmp_path / "net.bin"
    for i, name in enumerate(names):
        arrays = list(good)
        arrays[i] = np.zeros(wrong[name])
        _save_arrays(arrays, path)
        with pytest.raises(InvalidArgumentError, match=rf"\b{name}\b"):
            st.load_params(path)
        with pytest.raises(InvalidArgumentError, match=rf"\b{name}\b"):
            TinyNetParams(*arrays)
    # no hidden channel: every shape chains, but the net has no layer to run
    empty = [(0, 2, 3, 3), (0,), (0,), (0,), (0, 0, 3, 3), (0,), (1, 0, 3, 3), (1,)]
    _save_arrays([np.zeros(s) for s in empty], path)
    with pytest.raises(InvalidArgumentError, match="non-empty"):
        st.load_params(path)
    _save_arrays(good, path)
    assert all(np.array_equal(a, b) for a, b in zip(st.load_params(path).as_list(), good))


def test_params_over_the_limit_are_refused_when_loaded(tmp_path):
    # hidden 32 chains but holds 10,209 parameters, over MAX_PARAMS
    h = 32
    shapes = [(h, 2, 3, 3), (h,), (h,), (h,), (h, h, 3, 3), (h,), (1, h, 3, 3), (1,)]
    path = tmp_path / "big.bin"
    _save_arrays([np.zeros(s) for s in shapes], path)
    with pytest.raises(InvalidArgumentError, match="limit is 10000"):
        st.load_params(path)
