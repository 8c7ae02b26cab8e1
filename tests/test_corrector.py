"""Alignment fitting, Langevin refinement, and data consistency."""

import sys
import threading

import numpy as np
import pytest

import stridect as st
import stridect.corrector as corrector
from stridect.corrector import (
    AlignmentParams,
    CorrectorConfig,
    data_consistency,
    eps_schedule,
    fit_linear_alignment,
    langevin_growth,
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
    sino = st.Sinogram(y)
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
    sched = st.linear_schedule(T=10)
    assert eps_schedule(CorrectorConfig(n_steps=0), sched).size == 0
    one = eps_schedule(CorrectorConfig(n_steps=1, eps_start=0.3), sched)
    assert np.array_equal(one, [0.3])
    e = eps_schedule(CorrectorConfig(n_steps=50, eps_start=0.1, eps_end=1e-4), sched)
    assert e[0] == pytest.approx(0.1, rel=1e-12)
    assert e[-1] == pytest.approx(1e-4, rel=1e-12)
    assert np.all(np.diff(e) < 0)
    # default start ties to the schedule's exploding-variance ceiling
    d = eps_schedule(CorrectorConfig(n_steps=2), sched)
    assert d[0] == pytest.approx(1e-2 * sched.ve_sigma_max**2, rel=1e-12)


def test_corrector_config_validation():
    with pytest.raises(InvalidArgumentError):
        CorrectorConfig(n_steps=-1)
    with pytest.raises(InvalidArgumentError):
        CorrectorConfig(eps_end=0.0)
    with pytest.raises(InvalidArgumentError):
        CorrectorConfig(eps_start=-1.0)
    with pytest.raises(InvalidArgumentError):
        CorrectorConfig(lambda_low=-0.5)


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
    sched = st.linear_schedule(T=10)
    cfg = CorrectorConfig(n_steps=0)
    out = refine_bands(noisy, st.AnalyticGaussianScore(tb.low, 1e-4),
                       st.AnalyticGaussianScore(tb.high, 1e-4), cfg, sched)
    assert np.array_equal(out.values, noisy.values)


def test_refine_bands_deterministic():
    tb, noisy, _ = _band_fixture()
    sched = st.linear_schedule(T=10)
    cfg = CorrectorConfig(n_steps=20, eps_start=5e-5, eps_end=1e-6, seed=9)
    args = (noisy, st.AnalyticGaussianScore(tb.low, 1e-4),
            st.AnalyticGaussianScore(tb.high, 1e-4), cfg, sched)
    a = refine_bands(*args)
    b = refine_bands(*args)
    assert np.array_equal(a.values, b.values)


def test_refine_bands_leaves_caller_bands_unwritten():
    tb, noisy, _ = _band_fixture()
    before = noisy.values.copy()
    sched = st.linear_schedule(T=10)
    cfg = CorrectorConfig(n_steps=20, eps_start=5e-5, eps_end=1e-6, seed=9)
    for low, high in ((True, True), (False, True), (True, False)):
        out = refine_bands(noisy, st.AnalyticGaussianScore(tb.low, 1e-4) if low else None,
                           st.AnalyticGaussianScore(tb.high, 1e-4) if high else None,
                           cfg, sched)
        assert noisy.values.tobytes() == before.tobytes()
        assert not np.shares_memory(out.values, noisy.values)
        assert out.wavelet == noisy.wavelet


def test_refine_bands_improves_unobserved_rows():
    tb, noisy, active = _band_fixture()
    sched = st.linear_schedule(T=10)
    cfg = CorrectorConfig(n_steps=200, eps_start=5e-5, eps_end=1e-6, seed=0)
    out = refine_bands(noisy, st.AnalyticGaussianScore(tb.low, 1e-4),
                       st.AnalyticGaussianScore(tb.high, 1e-4), cfg, sched)
    m = ~active

    def err(b):
        return (np.mean((b.low[m] - tb.low[m]) ** 2)
                + sum(np.mean((h[m] - g[m]) ** 2)
                      for h, g in zip(b.high, tb.high)))

    assert err(out) <= 0.5 * err(noisy)


def test_refine_bands_disabled_branch_untouched():
    tb, noisy, _ = _band_fixture()
    sched = st.linear_schedule(T=10)
    cfg = CorrectorConfig(n_steps=10, eps_start=5e-5, eps_end=1e-6)
    out = refine_bands(noisy, None,
                       st.AnalyticGaussianScore(tb.high, 1e-4), cfg, sched)
    assert np.array_equal(out.low, noisy.low)
    assert any(not np.array_equal(a, b) for a, b in zip(out.high, noisy.high))


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


def _old_refine_bands(bands, score_low, score_high, cfg, sched):
    """Reference: the refinement loop before the bands were stacked, one band
    at a time with fresh arrays and noise drawn inline, step by step."""
    eps = eps_schedule(cfg, sched)
    ts = np.linspace(cfg.t_start, cfg.t_end, cfg.n_steps) if cfg.n_steps else np.zeros(0)
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, band]))
            for band in range(4)]
    low = np.array(bands.low, dtype=np.float64)
    highs = [np.array(h, dtype=np.float64) for h in bands.high]
    for k in range(cfg.n_steps):
        if score_low is not None:
            s = np.asarray(score_low.score(low, ts[k]), dtype=np.float64)
            if not np.all(np.isfinite(s)):
                raise NumericalAbortError(f"non-finite score at t={ts[k]}")
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


@pytest.mark.parametrize("case", sorted(_REFINE_CASES))
def test_refine_bands_bytes_match_old_loop(case, monkeypatch):
    spec = _REFINE_CASES[case]
    noisy, clean = _bands_case(spec.get("wavelet", "haar"), spec.get("shape", (12, 16)))
    cfg = CorrectorConfig(n_steps=25, eps_start=5e-5, eps_end=1e-6, seed=4,
                          **spec.get("cfg", {}))
    sched = st.linear_schedule(T=10)

    def scores(cls):
        return (cls(clean.low, 1e-4) if spec.get("low", True) else None,
                cls(clean.high, 1e-4) if spec.get("high", True) else None)

    want = _old_refine_bands(noisy, *scores(_OldGaussianScore), cfg, sched)
    for cap in (1, 4):
        monkeypatch.setattr(corrector, "_cpu_cap", lambda: cap)
        out = refine_bands(noisy, *scores(st.AnalyticGaussianScore), cfg, sched)
        assert [g.tobytes() for g in out.values] == [w.tobytes() for w in want], cap


def test_refine_bands_bytes_hold_under_fast_thread_switching(monkeypatch):
    # more drawing threads than cores and a tiny switch interval: a band
    # drawn twice, or not at all, in some step would change the bytes
    monkeypatch.setattr(corrector, "_cpu_cap", lambda: 4)
    noisy, clean = _bands_case()
    cfg = CorrectorConfig(n_steps=60, eps_start=5e-5, eps_end=1e-6, seed=8)
    sched = st.linear_schedule(T=10)
    want = _old_refine_bands(noisy, _OldGaussianScore(clean.low, 1e-4),
                             _OldGaussianScore(clean.high, 1e-4), cfg, sched)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = refine_bands(noisy, st.AnalyticGaussianScore(clean.low, 1e-4),
                           st.AnalyticGaussianScore(clean.high, 1e-4), cfg, sched)
    finally:
        sys.setswitchinterval(interval)
    assert [g.tobytes() for g in out.values] == [w.tobytes() for w in want]


@pytest.mark.parametrize("branch", ["low", "high"])
@pytest.mark.parametrize("cap", [1, 4])
def test_refine_bands_abort_keeps_message_and_joins_threads(branch, cap, monkeypatch):
    monkeypatch.setattr(corrector, "_cpu_cap", lambda: cap)
    noisy, clean = _bands_case()
    cfg = CorrectorConfig(n_steps=12, eps_start=5e-5, eps_end=1e-6)
    sched = st.linear_schedule(T=10)
    before = threading.active_count()

    refine_bands(noisy, st.AnalyticGaussianScore(clean.low, 1e-4),
                 st.AnalyticGaussianScore(clean.high, 1e-4), cfg, sched)
    assert threading.active_count() == before

    def scores():
        bad = {branch: 5}
        return (_OldGaussianScore(clean.low, 1e-4, bad.get("low")),
                _OldGaussianScore(clean.high, 1e-4, bad.get("high")))

    with pytest.raises(NumericalAbortError) as old:
        _old_refine_bands(noisy, *scores(), cfg, sched)
    with pytest.raises(NumericalAbortError) as new:
        refine_bands(noisy, *scores(), cfg, sched)
    assert str(new.value) == str(old.value)
    assert threading.active_count() == before


# ------------------------------------------------------- Langevin stability


def test_langevin_growth_on_the_default_schedule():
    eps = eps_schedule(CorrectorConfig(), st.linear_schedule())
    growth = {v: langevin_growth(eps, v) for v in (0.05, 1e-3, 1e-4, 1e-5)}
    assert growth[0.05] == pytest.approx(-0.097, abs=1e-3)
    assert growth[1e-3] == pytest.approx(73.2, abs=0.1)
    assert growth[1e-4] == pytest.approx(369.7, abs=0.1)
    assert growth[1e-5] == pytest.approx(869.1, abs=0.1)
    assert langevin_growth(np.zeros(0), 1.0) == float("-inf")
    with pytest.raises(InvalidArgumentError):
        langevin_growth(eps, 0.0)
    # a step of exactly var zeroes the deviation without a warning
    with np.errstate(all="raise"):
        assert langevin_growth(np.array([3.0, 1.0, 0.5]), 1.0) == pytest.approx(np.log10(2.0))
