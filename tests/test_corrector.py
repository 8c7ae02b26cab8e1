"""Alignment fitting, Langevin refinement, and data consistency."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import stridect as st
from stridect.corrector import (
    AlignmentParams,
    _band_rngs,
    CorrectorConfig,
    data_consistency,
    eps_schedule,
    fit_linear_alignment,
    langevin_step,
    refine_bands,
)
from stridect.errors import (
    InvalidArgumentError,
    NumericalAbortError,
    ShapeMismatchError,
)


class _FixedScore:
    """Score stub returning a callable of x."""

    def __init__(self, fn):
        self.fn = fn

    def score(self, x, t):
        return self.fn(np.asarray(x, dtype=np.float64))


class _ZeroRng:
    def standard_normal(self, shape):
        return np.zeros(shape)


# ------------------------------------------------------------------ alignment


def test_alignment_recovers_planted_map():
    rng = np.random.default_rng(0)
    y_gen = rng.normal(size=(10, 8))
    y_s = 2.0 * y_gen + 3.0
    active = st.make_sparse_mask(10, 2).active
    p = fit_linear_alignment(y_gen, y_s, active)
    assert abs(p.a - 2.0) <= 1e-9
    assert abs(p.b - 3.0) <= 1e-9
    assert not p.degenerate


def test_alignment_identity():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(6, 5))
    p = fit_linear_alignment(y, y, np.ones(6, bool))
    assert abs(p.a - 1.0) <= 1e-12
    assert abs(p.b) <= 1e-12


def test_alignment_degenerate_constant_input():
    y_gen = np.full((4, 3), 2.5)
    rng = np.random.default_rng(2)
    y_s = rng.normal(size=(4, 3))
    p = fit_linear_alignment(y_gen, y_s, np.ones(4, bool))
    assert p.degenerate
    assert p.a == 1.0
    assert p.b == pytest.approx(y_s.mean() - 2.5)


def test_alignment_validation():
    y = np.zeros((4, 3))
    active = np.zeros(4, bool)
    active[0] = True
    with pytest.raises(InvalidArgumentError):
        fit_linear_alignment(y, y, active)
    with pytest.raises(ShapeMismatchError):
        fit_linear_alignment(np.zeros((4, 3)), np.zeros((4, 5)), np.ones(4, bool))
    # shapes are compared before masking: a view count the flags do not index
    with pytest.raises(ShapeMismatchError):
        fit_linear_alignment(np.zeros((4, 3)), np.zeros((5, 3)), np.ones(4, bool))


def test_alignment_is_least_squares_optimal():
    rng = np.random.default_rng(3)

    def resid(a, b, g, y):
        return float(np.sum((a * g + b - y) ** 2))

    for _ in range(100):
        g = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 4)) + 0.5 * g
        active = np.ones(6, bool)
        p = fit_linear_alignment(g, y, active)
        base = resid(p.a, p.b, g, y)
        assert base <= resid(1.0, 0.0, g, y) + 1e-12
        for da in (-1e-3, 0.0, 1e-3):
            for db in (-1e-3, 0.0, 1e-3):
                assert base <= resid(p.a + da, p.b + db, g, y) + 1e-12


def test_apply_alignment_and_inverse():
    p = AlignmentParams(a=2.0, b=-1.0)
    y = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = st.apply_linear_alignment(y, p)
    assert np.array_equal(out, 2.0 * y - 1.0)
    back = (out - p.b) / p.a
    assert np.max(np.abs(back - y)) <= 1e-10
    sino = st.Sinogram(y, st.desk_geometry(2, 2, 16))
    assert np.array_equal(st.apply_linear_alignment(sino, p), out)


# ------------------------------------------------------------------- langevin


def test_langevin_zero_step_is_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 3))
    out = langevin_step(x, _FixedScore(lambda v: -v), 0.5, 0.0, rng)
    assert np.array_equal(out, x)


def test_langevin_drift_without_noise():
    x = np.array([[2.0, -4.0]])
    out = langevin_step(x, _FixedScore(lambda v: -v), 0.1, 0.1, _ZeroRng())
    assert np.allclose(out, 0.9 * x, rtol=1e-12)


def test_langevin_validation_and_abort():
    x = np.ones((2, 2))
    with pytest.raises(InvalidArgumentError):
        langevin_step(x, _FixedScore(lambda v: -v), 0.1, -0.1, _ZeroRng())
    with pytest.raises(NumericalAbortError):
        langevin_step(x, _FixedScore(lambda v: np.full_like(v, np.inf)), 0.1,
                      0.1, _ZeroRng())


def test_langevin_reaches_unit_gaussian_stationarity():
    # annealed chain targeting N(0, 1); empirical moments of 2000 chains
    x = np.full(2000, 3.0)
    rng = np.random.default_rng(42)
    n = 2000
    eps = 0.5 * (0.01 / 0.5) ** (np.arange(n) / (n - 1))
    model = _FixedScore(lambda v: -v)
    for k in range(n):
        x = langevin_step(x, model, 0.5, eps[k], rng)
    assert abs(x.mean()) <= 0.05
    assert abs(x.var() - 1.0) <= 0.1


# ----------------------------------------------------------- data consistency


def test_data_consistency_replaces_rows():
    x = np.zeros((4, 3))
    obs = np.arange(12.0).reshape(4, 3)
    rows = np.array([True, False, True, False])
    out = data_consistency(x, obs, rows)
    assert np.array_equal(out[rows], obs[rows])
    assert np.array_equal(out[~rows], x[~rows])
    again = data_consistency(out, obs, rows)
    assert np.array_equal(again, out)
    assert np.array_equal(data_consistency(x, obs, np.ones(4, bool)), obs)


def test_data_consistency_validation():
    with pytest.raises(ShapeMismatchError):
        data_consistency(np.zeros((4, 3)), np.zeros((4, 2)), np.ones(4, bool))
    with pytest.raises(ShapeMismatchError):
        data_consistency(np.zeros((4, 3)), np.zeros((4, 3)), np.ones(3, bool))


# ------------------------------------------------------------- step schedule


def test_eps_schedule_shapes_and_endpoints():
    assert eps_schedule(CorrectorConfig(n_steps=0)).size == 0
    one = eps_schedule(CorrectorConfig(n_steps=1, eps_start=0.3))
    assert np.array_equal(one, [0.3])
    e = eps_schedule(CorrectorConfig(n_steps=50, eps_start=0.1, eps_end=1e-4))
    assert e[0] == pytest.approx(0.1, rel=1e-12)
    assert e[-1] == pytest.approx(1e-4, rel=1e-12)
    assert np.all(np.diff(e) < 0)
    # default start is 1e-2 * sigma_max^2 of the exploding-variance range,
    # whose sigma_max is 1
    d = eps_schedule(CorrectorConfig(n_steps=2))
    assert d[0] == 1e-2 * st.denoiser.ve_sigma(1.0) ** 2


@pytest.mark.parametrize("start,end", [(1e200, 1e-200), (1.0, 5e-324), (1e-300, 1e300)])
def test_eps_schedule_of_no_or_one_step_survives_an_extreme_ratio(start, end):
    # end / start is 0, subnormal or infinite; the first two raise at the power -1
    cfg = CorrectorConfig(n_steps=0, eps_start=start, eps_end=end)
    assert eps_schedule(cfg).size == 0
    assert eps_schedule(replace(cfg, n_steps=1)).tobytes() == np.array([start]).tobytes()


def test_corrector_config_validation():
    with pytest.raises(InvalidArgumentError):
        CorrectorConfig(n_steps=-1)
    with pytest.raises(InvalidArgumentError):
        CorrectorConfig(eps_end=0.0)
    with pytest.raises(InvalidArgumentError):
        CorrectorConfig(eps_start=-1.0)
    with pytest.raises(InvalidArgumentError):
        CorrectorConfig(lambda_low=-0.5)



@pytest.mark.parametrize("key", ["eps_start", "eps_end", "lambda_low", "lambda_high"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_corrector_setting_rejected(key, value):
    # nan passes every comparison test: lambda_low = nan silently ran as 0
    with pytest.raises(InvalidArgumentError, match=f"{key} must be finite"):
        CorrectorConfig(**{key: value})


# ------------------------------------------------------------- refine_bands


def _band_fixture(seed=3, shape=(12, 16)):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=shape)
    tb = st.swt_decompose(truth)
    active = st.make_sparse_mask(shape[0], 3).active
    bump = np.where(~active[:, None], 0.3, 0.0)
    noisy = st.WaveletBands(tb.values + bump * rng.standard_normal((4,) + shape))
    return tb, noisy, active


def test_refine_bands_zero_steps_is_identity():
    tb, noisy, _ = _band_fixture()
    cfg = CorrectorConfig(n_steps=0)
    out = refine_bands(noisy, st.AnalyticGaussianScore(tb.low, 1e-4),
                       st.AnalyticGaussianScore(tb.high, 1e-4), cfg)
    assert np.array_equal(out.values, noisy.values)


def test_refine_bands_deterministic():
    tb, noisy, _ = _band_fixture()
    cfg = CorrectorConfig(n_steps=20, eps_start=5e-5, eps_end=1e-6, seed=9)
    args = (noisy, st.AnalyticGaussianScore(tb.low, 1e-4),
            st.AnalyticGaussianScore(tb.high, 1e-4), cfg)
    a = refine_bands(*args)
    b = refine_bands(*args)
    assert np.array_equal(a.values, b.values)


def test_refine_bands_leaves_caller_bands_unwritten():
    tb, noisy, _ = _band_fixture()
    before = noisy.values.copy()
    cfg = CorrectorConfig(n_steps=20, eps_start=5e-5, eps_end=1e-6, seed=9)
    for low, high in ((True, True), (False, True), (True, False)):
        out = refine_bands(noisy, st.AnalyticGaussianScore(tb.low, 1e-4) if low else None,
                           st.AnalyticGaussianScore(tb.high, 1e-4) if high else None,
                           cfg)
        assert noisy.values.tobytes() == before.tobytes()
        assert not np.shares_memory(out.values, noisy.values)
        assert out.wavelet == noisy.wavelet


def test_refine_bands_improves_unobserved_rows():
    tb, noisy, active = _band_fixture()
    cfg = CorrectorConfig(n_steps=200, eps_start=5e-5, eps_end=1e-6, seed=0)
    out = refine_bands(noisy, st.AnalyticGaussianScore(tb.low, 1e-4),
                       st.AnalyticGaussianScore(tb.high, 1e-4), cfg)
    m = ~active

    def err(b):
        return (np.mean((b.low[m] - tb.low[m]) ** 2)
                + sum(np.mean((h[m] - g[m]) ** 2)
                      for h, g in zip(b.high, tb.high)))

    assert err(out) <= 0.5 * err(noisy)


def test_refine_bands_disabled_branch_untouched():
    tb, noisy, _ = _band_fixture()
    cfg = CorrectorConfig(n_steps=10, eps_start=5e-5, eps_end=1e-6)
    out = refine_bands(noisy, None,
                       st.AnalyticGaussianScore(tb.high, 1e-4), cfg)
    assert np.array_equal(out.low, noisy.low)
    assert any(not np.array_equal(a, b) for a, b in zip(out.high, noisy.high))


def test_band_streams_differ_from_the_coarse_stream_under_equal_seeds():
    # stride_reconstruct draws its coarse stage from (seed, 0); SeedSequence
    # drops trailing zero words, so (5, 0) and (5,) are one stream
    coarse = np.random.default_rng(np.random.SeedSequence([5, 0]))
    assert coarse.standard_normal() == np.random.default_rng(5).standard_normal()
    coarse = np.random.default_rng(np.random.SeedSequence([5, 0]))
    firsts = [coarse.standard_normal()] + [r.standard_normal() for r in _band_rngs(5)]
    assert len(set(firsts)) == 5


# ------------------------------------------ refine_bands against its old loop


class _OldGaussianScore:
    """The Gaussian score written as it was: -(y - mean) / var in three
    allocations. It can turn non-finite after a number of calls."""

    def __init__(self, mean, var, finite_calls=None):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.var = var
        self.finite_calls = finite_calls
        self.calls = 0

    def score(self, y, t):
        self.calls += 1
        s = -(np.asarray(y, dtype=np.float64) - self.mean) / self.var
        if self.finite_calls is not None and self.calls > self.finite_calls:
            s[(0,) * s.ndim] = np.nan
        return s


def _old_refine_bands(bands, score_low, score_high, cfg):
    """Reference: the refinement loop before the bands were stacked, one band
    at a time with fresh arrays and noise drawn inline, step by step."""
    eps = eps_schedule(cfg)
    ts = np.linspace(1.0, 0.02, cfg.n_steps) if cfg.n_steps else np.zeros(0)
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, band]))
            for band in range(4)]
    low = np.array(bands.low, dtype=np.float64)
    highs = [np.array(h, dtype=np.float64) for h in bands.high]
    for k in range(cfg.n_steps):
        if score_low is not None:
            s = np.asarray(score_low.score(low, ts[k]), dtype=np.float64)
            if not np.all(np.isfinite(s)):
                raise NumericalAbortError(f"non-finite low-band score at step {k}")
            e = cfg.lambda_low * eps[k]
            low = low + e * s + np.sqrt(2.0 * e) * rngs[0].standard_normal(low.shape)
        if score_high is not None:
            s = np.asarray(score_high.score(np.stack(highs), ts[k]), dtype=np.float64)
            if not np.all(np.isfinite(s)):
                raise NumericalAbortError(f"non-finite high-band score at step {k}")
            e = cfg.lambda_high * eps[k]
            for i in range(3):
                z = rngs[i + 1].standard_normal(highs[i].shape)
                highs[i] = highs[i] + e * s[i] + np.sqrt(2.0 * e) * z
    return [low, *highs]


def _bands_case(wavelet="haar", shape=(12, 16), seed=5):
    """Noisy bands and the clean bands their scores centre on."""
    rng = np.random.default_rng(seed)
    clean = st.swt_decompose(rng.normal(size=shape), wavelet)
    noisy = st.swt_decompose(rng.normal(size=shape), wavelet)
    return noisy, clean


_REFINE_CASES = {
    "both": {},
    "low-only": {"high": False},
    "high-only": {"low": False},
    "lambdas-differ": {"cfg": {"lambda_low": 0.3, "lambda_high": 1.7}},
    "db2": {"wavelet": "db2"},
    "odd-shape": {"shape": (13, 7)},
}


def _case_scores(spec, clean, cls):
    """The case's (score_low, score_high), each of class ``cls`` unless the
    case names another class or switches the branch off."""
    def make(branch, mean):
        kind = spec.get(branch, cls)
        return kind(mean, 1e-4) if kind else None
    return make("low", clean.low), make("high", clean.high)


def _case(spec):
    noisy, clean = _bands_case(spec.get("wavelet", "haar"), spec.get("shape", (12, 16)))
    cfg = CorrectorConfig(n_steps=25, eps_start=5e-5, eps_end=1e-6, seed=4,
                          **spec.get("cfg", {}))
    return noisy, clean, cfg


@pytest.mark.parametrize("case", sorted(_REFINE_CASES))
def test_refine_bands_bytes_match_old_loop(case):
    # a score model that is not an AnalyticGaussianScore takes the step loop
    spec = _REFINE_CASES[case]
    noisy, clean, cfg = _case(spec)
    want = _old_refine_bands(noisy, *_case_scores(spec, clean, _OldGaussianScore), cfg)
    out = refine_bands(noisy, *_case_scores(spec, clean, _OldGaussianScore), cfg)
    assert [g.tobytes() for g in out.values] == [w.tobytes() for w in want]


def _closed_form_bands(bands, score_low, score_high, cfg):
    """Reference: each Gaussian branch's n steps as mean + P (x - mean) + S z,
    with P and S built up step by step and one draw per band."""
    eps = eps_schedule(cfg)
    out = [np.array(b, dtype=np.float64) for b in bands.values]
    for model, lam, idx in ((score_low, cfg.lambda_low, [0]),
                            (score_high, cfg.lambda_high, [1, 2, 3])):
        if not isinstance(model, st.AnalyticGaussianScore):
            continue
        p, s = 1.0, 0.0
        for e in (lam * eps).tolist():
            a = 1.0 - e / model.var
            p *= a
            s = math.hypot(a * s, math.sqrt(2.0 * e))
        means = np.broadcast_to(model.mean, (len(idx),) + out[0].shape)
        for mean, b in zip(means, idx):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, b]))
            out[b] = ((out[b] - mean) * p + mean) + rng.standard_normal(mean.shape) * s
    return out


_GAUSSIAN_CASES = {**_REFINE_CASES, "mixed": {"high": _OldGaussianScore}}


@pytest.mark.parametrize("case", sorted(_GAUSSIAN_CASES))
def test_refine_bands_gaussian_bytes_match_closed_form(case):
    spec = _GAUSSIAN_CASES[case]
    noisy, clean, cfg = _case(spec)
    scores = _case_scores(spec, clean, st.AnalyticGaussianScore)
    want = _closed_form_bands(noisy, *scores, cfg)
    if spec.get("high") is _OldGaussianScore:
        # the high branch still steps through the loop, byte for byte
        loop = _old_refine_bands(noisy, None, _OldGaussianScore(clean.high, 1e-4), cfg)
        want[1:] = loop[1:]
    out = refine_bands(noisy, *scores, cfg)
    assert [g.tobytes() for g in out.values] == [w.tobytes() for w in want]


def _chain_moments(eps, var):
    """Memory factor P and noise variance S^2 of Langevin steps eps under
    N(mean, var I), summed term by term."""
    a = 1.0 - eps / var
    tails = np.append(np.cumprod(a[::-1])[::-1][1:], 1.0)  # prod_{i>j} a_i
    return float(np.prod(a)), float(np.sum(2.0 * eps * tails**2))


@pytest.mark.parametrize("schedule", ["half-memory", "default"])
def test_refine_bands_closed_form_and_loop_share_the_chain_distribution(schedule):
    # per-pixel moments of the low band over 400 seeds against
    # mean + P (x0 - mean) and S^2; the high bands run the same code per band
    rng = np.random.default_rng(11)
    x0 = st.WaveletBands(rng.normal(size=(4, 4, 5)))
    mean, var, n = rng.normal(size=(4, 5)), 0.05, 400
    if schedule == "half-memory":
        base = CorrectorConfig(n_steps=20, eps_start=2e-3, eps_end=1e-3)
    else:
        base = CorrectorConfig()
    p, s2 = _chain_moments(eps_schedule(base), var)
    if schedule == "half-memory":
        assert 0.4 < p < 0.6
    want_mean = mean + p * (x0.low - mean)
    for cls in (st.AnalyticGaussianScore, _OldGaussianScore):
        draws = np.stack([refine_bands(x0, cls(mean, var), None,
                                       replace(base, seed=seed)).low
                          for seed in range(n)])
        assert np.max(np.abs(draws.mean(0) - want_mean)) <= 5 * math.sqrt(s2 / n), cls
        assert np.max(np.abs(draws.var(0, ddof=1) - s2)) <= 5 * s2 * math.sqrt(2 / (n - 1)), cls


@pytest.mark.parametrize("branch", ["low", "high"])
def test_refine_bands_closed_form_aborts_on_a_non_finite_band(branch):
    noisy, clean = _bands_case()
    noisy.values[0 if branch == "low" else 2, 3, 4] = np.nan
    cfg = CorrectorConfig(n_steps=12, eps_start=5e-5, eps_end=1e-6)
    with pytest.raises(NumericalAbortError, match=f"{branch}-band"):
        refine_bands(noisy, st.AnalyticGaussianScore(clean.low, 1e-4),
                     st.AnalyticGaussianScore(clean.high, 1e-4), cfg)


@pytest.mark.parametrize("branch", ["low", "high"])
@pytest.mark.parametrize("finite_calls", [1, 4])
def test_refine_bands_abort_keeps_message(branch, finite_calls):
    """A score that turns non-finite after `finite_calls` steps aborts the
    loop with the old message."""
    noisy, clean = _bands_case()
    cfg = CorrectorConfig(n_steps=12, eps_start=5e-5, eps_end=1e-6)

    def scores():
        bad = {branch: finite_calls}
        return (_OldGaussianScore(clean.low, 1e-4, bad.get("low")),
                _OldGaussianScore(clean.high, 1e-4, bad.get("high")))

    with pytest.raises(NumericalAbortError) as old:
        _old_refine_bands(noisy, *scores(), cfg)
    with pytest.raises(NumericalAbortError) as new:
        refine_bands(noisy, *scores(), cfg)
    assert str(new.value) == str(old.value)


# ------------------------------------------------------- Langevin stability


def _factors(e, var):
    return st.AnalyticGaussianScore(0.0, var).langevin_factors(e)


def test_gaussian_factors_on_the_default_schedule():
    eps = eps_schedule(CorrectorConfig())
    p, s = _factors(eps, 0.05)
    assert p == pytest.approx(1.0295e-8, rel=1e-4)
    assert s == pytest.approx(0.22394, rel=1e-4)
    p, s = _factors(eps, 1e-3)
    assert p == pytest.approx(7.8467e-20, rel=1e-4)
    assert s == pytest.approx(0.031747, rel=1e-4)
    # P is 3.2e48, -2.6e110, then overflows to +inf and to -inf
    for var in (5e-4, 3e-4, 1e-4, 1e-5):
        with pytest.raises(InvalidArgumentError, match="var=.*prior_var"):
            _factors(eps, var)
    # a var that is not positive is refused when the score is built
    for var in (0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="must be positive"):
            st.AnalyticGaussianScore(0.0, var)
    assert _factors(np.zeros(0), 1.0) == (1.0, 0.0)
    # a step of exactly var zeroes the deviation without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, s = _factors(np.array([3.0, 1.0, 0.5]), 1.0)
    assert p == 0.0
    assert s == pytest.approx(math.sqrt(1.5), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.floats(1e-6, 0.2), min_size=1, max_size=40),
       hst.floats(0.01, 1.0))
def test_gaussian_factors_match_the_chain_moments(steps, var):
    e = np.array(steps)
    want_p, want_s2 = _chain_moments(e, var)
    assume(abs(abs(want_p) - 1.0) > 1e-9)  # the two products may round apart
    if abs(want_p) > 1.0:
        with pytest.raises(InvalidArgumentError):
            _factors(e, var)
        return
    p, s = _factors(e, var)
    assert p == pytest.approx(want_p, rel=1e-12, abs=1e-300)
    assert s * s == pytest.approx(want_s2, rel=1e-10)
