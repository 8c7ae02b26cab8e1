"""End-to-end reconstruction chain: stages, ablations, CSV reports."""

import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import stridect as st
import stridect.fbp as fbp
import stridect.pipeline as pipeline
from stridect.denoiser import AnalyticGaussianDenoiser
from stridect.diffusion import cfg_combine, predict_x0
from stridect.errors import InvalidArgumentError, NumericalAbortError, ShapeMismatchError
from stridect.pipeline import (
    PipelineConfig,
    ReconstructionResult,
    coarse_generate,
    ddim_times,
    interpolate_views,
    report_to_csv,
)


def _small_problem(n_views=12, r=3, nx=16, noise=None):
    phantom = st.shepp_logan(nx, nx)
    g = st.desk_geometry(n_views, 16, nx)
    sino = st.forward_project(phantom, g)
    m = st.make_sparse_mask(n_views, r)
    spec = noise or st.NoiseSpec()
    masked = st.simulate_measurement(phantom, g, m, spec)
    grid = st.ImageGrid(nx, nx, 1.0, np.zeros((nx, nx)))
    return phantom, g, sino, m, masked, grid


def _small_cfg(**over):
    sched = st.linear_schedule(T=10)
    base = dict(
        ddim_steps=5,
        guidance=st.GuidanceConfig(mode="temporal", nu=0.9),
        corrector=st.CorrectorConfig(n_steps=5, eps_start=1e-4, eps_end=1e-6),
    )
    base.update(over)
    return PipelineConfig(**base), sched


# -------------------------------------------------------------- time ladder


def test_ddim_times_ladder():
    ts = ddim_times(1000, 100)
    assert ts[0] == 1000 and ts[-1] == 0
    assert len(ts) == 101
    full = ddim_times(10, 10)
    assert np.array_equal(full, np.arange(10, -1, -1))
    # rounding never merges two timesteps: points are at least 1 apart, and
    # exactly 1 apart only at steps = T, where they are integers
    for T in (10, 1000):
        for steps in range(1, T + 1):
            ts = ddim_times(T, steps)
            assert len(ts) == steps + 1 and ts[0] == T and ts[-1] == 0
            assert np.all(np.diff(ts) < 0), (T, steps)


def test_ddim_times_validation():
    with pytest.raises(InvalidArgumentError):
        ddim_times(10, 0)
    with pytest.raises(InvalidArgumentError):
        ddim_times(10, 11)


# ------------------------------------------------------------ interpolation


def test_interpolate_views_basics():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(8, 5))
    active = st.make_sparse_mask(8, 2).active
    out = interpolate_views(vals, active)
    assert np.array_equal(out[active], vals[active])
    mid = 0.5 * (vals[0] + vals[2])
    assert np.allclose(out[1], mid, rtol=1e-12)


def _interp_column_loop(values, active):
    """interpolate_views as first written: one periodic np.interp a column."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    rows = np.arange(n, dtype=np.float64)
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        out[:, j] = np.interp(rows, rows[active], values[active, j], period=float(n))
    return out


def test_interpolate_views_matches_column_loop_bytes():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(30):
        n = int(rng.integers(2, 40))
        active = rng.random(n) < rng.uniform(0.1, 0.9)
        active[rng.integers(n)] = True
        cases.append((rng.normal(size=(n, int(rng.integers(1, 9)))), active))
    single = np.zeros(10, bool)
    single[6] = True
    cases.append((rng.normal(size=(10, 4)), single))
    late = st.make_sparse_mask(12, 3).active  # first row inactive: wraps
    late = np.roll(late, 1)
    cases.append((rng.normal(size=(12, 5)), late))
    odd = rng.normal(size=(12, 6))
    odd[3, 0] = np.inf
    odd[6, 1] = -np.inf
    odd[0, 2] = np.inf
    odd[3, 2] = np.inf
    odd[9, 3] = np.nan
    odd[6, 4] = -0.0
    cases.append((odd, st.make_sparse_mask(12, 3).active))
    cases.append((odd, np.ones(12, bool)))
    for values, active in cases:
        expect = _interp_column_loop(values, active)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the loop warns on nothing
            out = interpolate_views(values, active)
        assert out.tobytes() == expect.tobytes()


def _interp_cases():
    rng = np.random.default_rng(5)
    scan = rng.normal(size=(180, 32))
    irregular = np.zeros(180, bool)
    irregular[[2, 3, 17, 40, 41, 42, 99, 150, 179]] = True
    one = np.zeros(180, bool)
    one[77] = True
    # knot differences overflow: slopes and values reach +-inf
    huge = rng.choice([1.7e308, -1.7e308, 1e308, -0.5e308, 0.0], size=(24, 7))
    return {"non-stride": (scan, irregular), "one-view": (scan, one),
            "near-overflow": (huge, np.arange(24) % 3 != 1)}


@pytest.mark.parametrize("case", sorted(_interp_cases()))
def test_interpolate_views_matches_column_loop_on_more_masks(case):
    values, active = _interp_cases()[case]
    expect = _interp_column_loop(values, active)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = interpolate_views(values, active)
    assert out.tobytes() == expect.tobytes()


def test_interpolate_views_periodic_wrap():
    vals = np.zeros((8, 2))
    vals[0] = 1.0
    vals[4] = 3.0
    active = st.make_sparse_mask(8, 4).active
    out = interpolate_views(vals, active)
    # row 6 sits halfway between row 4 and row 8 == row 0
    assert np.allclose(out[6], 2.0, rtol=1e-12)
    with pytest.raises(InvalidArgumentError):
        interpolate_views(vals, np.zeros(8, bool))
    with pytest.raises(ShapeMismatchError):
        interpolate_views(vals[:, 0], active)


# ---------------------------------------------------------- coarse generate


def test_coarse_generate_full_clamp_reproduces_input():
    # every row observed and lambda pinned to 1: the chain must land on the
    # observation exactly, because the last step returns the clamped estimate
    rng = np.random.default_rng(1)
    y_s = rng.normal(size=(6, 5)) + 3.0
    active = np.ones(6, bool)
    sched = st.linear_schedule(T=10)
    cfg, _ = _small_cfg(guidance=st.GuidanceConfig(mode="fixed", nu=1.0))
    model = AnalyticGaussianDenoiser(np.zeros_like(y_s), 1.0, sched)
    rng = np.random.default_rng(2)
    out = coarse_generate(rng.standard_normal(y_s.shape), y_s, active, model, sched, cfg, rng)
    assert np.array_equal(out, y_s)


def _old_coarse_generate(y_s, active, model, sched, cfg, rng):
    """coarse_generate as first written, with the step functions inlined as
    whole-array expressions: a fresh array for every intermediate."""
    y_s = np.asarray(y_s, dtype=np.float64)
    active = np.asarray(active, bool)
    cond = st.mask_rows(y_s, active) if getattr(model, "conditional", False) else None
    ts = ddim_times(sched.T, cfg.ddim_steps)
    y = rng.standard_normal(y_s.shape)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        t = int(t)
        eps_hat = model.predict_eps(y, t, cond)
        if cond is not None and cfg.omega != 0.0:
            eps_unc = model.predict_eps(y, t, None)
            eps_hat = cfg_combine(eps_hat, eps_unc, cfg.omega)
        ab = sched.alpha_bar[t]
        y0_hat = (y - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
        lam = st.guidance_weight(t, cfg.guidance, sched.T)
        rows = active[:, None]
        if lam == 1.0:
            y0_hat = np.where(rows, y_s, y0_hat)
        elif lam != 0.0:
            y0_hat = np.where(rows, y0_hat + lam * (y_s - y0_hat), y0_hat)
        if cfg.align_per_step and cfg.alignment:
            align = st.fit_linear_alignment(y0_hat, y_s, active)
            y0_hat = align.a * y0_hat + align.b
        ab_prev = sched.alpha_bar[int(t_prev)]
        y = np.sqrt(ab_prev) * y0_hat + np.sqrt(max(1.0 - ab_prev, 0.0)) * eps_hat
        if cfg.sigma_ddim > 0.0:
            y = y + cfg.sigma_ddim * rng.standard_normal(y.shape)
    return y


class _ReadOnlyEps:
    """Hands back a model's noise predictions as read-only arrays, so a
    sampler that writes into one raises."""

    def __init__(self, model):
        self.model = model
        self.conditional = getattr(model, "conditional", False)

    def predict_eps(self, y_t, t, condition=None):
        eps = self.model.predict_eps(y_t, t, condition)
        eps.setflags(write=False)
        return eps


def _coarse_cases():
    sched = st.linear_schedule(T=20)
    rng = np.random.default_rng(21)
    y_s = rng.normal(size=(12, 9)) + 1.0
    active = st.make_sparse_mask(12, 3).active
    prior = interpolate_views(y_s, active)
    plain = AnalyticGaussianDenoiser(prior, 0.05, sched)
    net = st.TinyEpsNet(st.init_tiny_net(2, 1, hidden=4, seed=5), sched)

    def cfg(**over):
        base = dict(ddim_steps=6, guidance=st.GuidanceConfig(mode="temporal", nu=0.9))
        base.update(over)
        return PipelineConfig(**base)

    cases = [(f"fixed-{nu}", plain, cfg(guidance=st.GuidanceConfig(mode="fixed", nu=nu)))
             for nu in (0.0, 0.3, 1.0)]
    cases += [
        ("temporal", plain, cfg()),
        ("coupled", st.CoupledGaussianDenoiser(prior, 0.05, sched, mix=0.3), cfg()),
        ("net-omega", net, cfg(omega=0.7)),
        ("net-no-omega", net, cfg()),
        ("align-per-step", plain, cfg(align_per_step=True)),
        ("sigma", plain, cfg(sigma_ddim=0.2)),
        ("one-step", plain, cfg(ddim_steps=1)),
    ]
    cases = [(name, model, c, active) for name, model, c in cases]
    # row sets no stride mask makes: none, one, and unevenly spaced rows,
    # which guidance gathers and scatters back, and every row, which it
    # blends in place as a whole
    for rows_name, rows in (("no-rows", []), ("one-row", [4]), ("uneven-rows", [0, 1, 5]),
                            ("all-rows", list(range(12)))):
        flags = np.zeros(12, bool)
        flags[rows] = True
        cases += [(f"{rows_name}-{nu}", plain,
                   cfg(guidance=st.GuidanceConfig(mode="fixed", nu=nu)), flags)
                  for nu in (0.3, 1.0)]
        cases.append((f"{rows_name}-net-omega", net, cfg(omega=0.7), flags))
    return sched, y_s, active, cases


def test_coarse_generate_matches_old_loop_bytes():
    sched, y_s, _, cases = _coarse_cases()
    for name, model, cfg, active in cases:
        rng = np.random.default_rng(8)
        y_T = rng.standard_normal(y_s.shape)
        y_T.setflags(write=False)
        out = coarse_generate(y_T, y_s, active, _ReadOnlyEps(model), sched, cfg, rng)
        expect = _old_coarse_generate(y_s, active, model, sched, cfg,
                                      np.random.default_rng(8))
        assert out.tobytes() == expect.tobytes(), name


def test_coarse_generate_rejects_nan_weight_and_bad_mask():
    sched, y_s, active, _ = _coarse_cases()
    model = AnalyticGaussianDenoiser(np.zeros_like(y_s), 1.0, sched)
    # a weight is checked once, when its config is built
    with pytest.raises(InvalidArgumentError, match="nu"):
        st.GuidanceConfig(mode="fixed", nu=float("nan"))
    ok = PipelineConfig(ddim_steps=3)
    with pytest.raises(ShapeMismatchError):
        coarse_generate(y_s, y_s, active[:-1], model, sched, ok, np.random.default_rng(0))


def test_coarse_generate_checks_its_start_and_generator():
    sched, y_s, active, _ = _coarse_cases()
    model = AnalyticGaussianDenoiser(np.zeros_like(y_s), 1.0, sched)
    with pytest.raises(ShapeMismatchError, match=r"y_T of shape \(11, 9\)"):
        coarse_generate(y_s[1:], y_s, active, model, sched, PipelineConfig(ddim_steps=3),
                        np.random.default_rng(0))
    # a deterministic chain draws nothing; a stochastic one needs a generator
    out = coarse_generate(y_s, y_s, active, model, sched, PipelineConfig(ddim_steps=3), None)
    assert np.all(np.isfinite(out))
    with pytest.raises(InvalidArgumentError, match="needs an rng"):
        coarse_generate(y_s, y_s, active, model, sched,
                        PipelineConfig(ddim_steps=3, sigma_ddim=0.1), None)


# ------------------------------------------------------------ full pipeline


def test_reconstruct_final_dc_pins_active_rows():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
    assert isinstance(res, ReconstructionResult)
    assert np.array_equal(res.sinogram.values[m.active],
                          masked.values[m.active])
    assert res.sinogram.geometry is masked.geometry
    # all-zero measured rows cannot set the scale, which stays 1
    blank = masked.with_values(np.zeros_like(masked.values))
    res = st.stride_reconstruct(blank, m, grid, cfg, sched=sched)
    assert np.all(np.isfinite(res.image.values))
    assert not res.sinogram.values[m.active].any()


def test_reconstruct_trust_dc_full_mask_pins_everything():
    # r = 1 observes every view, so the final step writes back all of them
    phantom, g, sino, m, masked, grid = _small_problem(r=1)
    cfg, sched = _small_cfg(final_dc="active")
    res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
    assert np.array_equal(res.sinogram.values, masked.values)


def test_reconstruct_stage_sequence_and_alignment_gain():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched,
                                reference=sino, reference_image=phantom)
    names = [s.stage for s in res.stages]
    assert names == ["coarse", "aligned", "refined", "final-dc", "fbp"]
    coarse, aligned = res.stages[0], res.stages[1]
    # the affine fit minimizes masked error, so it can never lose to identity
    assert aligned.mse_masked <= coarse.mse_masked + 1e-12
    assert res.alignment is not None
    assert np.isfinite(res.stages[-1].psnr)


def test_reconstruct_deterministic():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    a = st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
    b = st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
    assert np.array_equal(a.image.values, b.image.values)
    assert np.array_equal(a.sinogram.values, b.sinogram.values)


def test_reconstruct_validation():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    with pytest.raises(ShapeMismatchError):
        st.stride_reconstruct(masked, st.make_sparse_mask(8, 2), grid, cfg,
                              sched=sched)
    with pytest.raises(InvalidArgumentError, match="final_dc"):
        PipelineConfig(final_dc="trust")
    with pytest.raises(InvalidArgumentError, match="ddim_steps"):
        PipelineConfig(ddim_steps=0)
    with pytest.raises(InvalidArgumentError, match="weighting"):
        PipelineConfig(filter=st.FilterSpec(weighting="exactt"))
    with pytest.raises(InvalidArgumentError, match="align_per_step"):
        PipelineConfig(alignment=False, align_per_step=True)
    with pytest.raises(InvalidArgumentError, match="wavelet"):
        PipelineConfig(wavelet="sym4")
    # refinement off never reaches the wavelet code, and is still checked
    with pytest.raises(InvalidArgumentError, match="wavelet"):
        PipelineConfig(wavelet="sym4", corrector=st.CorrectorConfig(n_steps=0))
    # the sampler's noise scale is checked with its config, not by the sampler
    with pytest.raises(InvalidArgumentError, match="sigma_ddim must be >= 0"):
        PipelineConfig(sigma_ddim=-0.1)


@pytest.mark.parametrize("key", ["sigma_ddim", "omega", "prior_var"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_pipeline_setting_rejected(key, value):
    # nan passes every comparison test, so each would otherwise run
    with pytest.raises(InvalidArgumentError, match=f"{key} must be finite"):
        PipelineConfig(**{key: value})


# each place a seed is set: the name its refusal gives, and a call with it
_SEEDED = {
    "PipelineConfig": ("seed", lambda seed: PipelineConfig(seed=seed)),
    "CorrectorConfig": ("corrector seed", lambda seed: st.CorrectorConfig(seed=seed)),
    "NoiseSpec": ("noise seed", lambda seed: st.NoiseSpec(sigma=0.0, seed=seed)),
    "init_tiny_net": ("seed", lambda seed: st.init_tiny_net(2, 1, hidden=2, seed=seed)),
    "train_epsilon": ("seed", lambda seed: st.train_epsilon(
        [np.zeros((4, 4))], st.linear_schedule(), epochs=1, steps_per_epoch=1,
        hidden=2, seed=seed)),
    "train_score": ("seed", lambda seed: st.train_score(
        [np.zeros((4, 4))], epochs=1, steps_per_epoch=1, hidden=2, seed=seed)),
}


@pytest.mark.parametrize("where", list(_SEEDED))
def test_negative_seed_is_refused_where_it_is_set(where):
    # numpy refuses it only at the first draw, with a bare ValueError
    name, make = _SEEDED[where]
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be >= 0, got -1$"):
        make(-1)
    make(0)


@pytest.mark.parametrize("n_steps", [600, 0])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_prior_var_must_be_positive_on_every_route(n_steps, value):
    # the surrogate and the band scores share one rule, whether or not the
    # corrector runs; with n_steps = 0 a bad value used to reach the sampler
    corrector = st.CorrectorConfig(n_steps=n_steps)
    with pytest.raises(InvalidArgumentError, match="prior_var must be finite and > 0"):
        PipelineConfig(prior_var=value, corrector=corrector)


def test_mismatched_references_fail_before_any_chain_work(monkeypatch):
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    more_views = st.forward_project(phantom, st.desk_geometry(24, 16, 16))
    small_image = st.shepp_logan(8, 8)

    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(pipeline, "interpolate_views", reached)
    calls = [
        lambda: st.stride_reconstruct(masked, m, grid, cfg, sched=sched,
                                      reference=more_views),
        lambda: st.stride_reconstruct(masked, m, grid, cfg, sched=sched,
                                      reference_image=small_image),
        lambda: st.run_component_ablation(masked, m, grid, cfg, more_views,
                                          sched=sched),
        lambda: st.run_lambda_sweep(masked, m, grid, cfg, more_views, sched=sched),
        lambda: st.run_lambda_sweep(masked, m, grid, cfg, sino,
                                    reference_image=small_image, sched=sched),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatchError, match="reference"):
            call()


def test_references_ssim_cannot_score_fail_before_any_chain_work(monkeypatch):
    # every stage is scored by SSIM against the references, whose 7-wide
    # window needs more than 6 pixels a side; the sweep scores PSNR only
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    g6 = st.desk_geometry(12, 6, 16)
    narrow = st.apply_mask(st.forward_project(phantom, g6), m)
    narrow_full = st.forward_project(phantom, g6)
    grid6 = st.ImageGrid(6, 6, 1.0, np.zeros((6, 6)))
    image6 = st.shepp_logan(6, 6)

    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(pipeline, "coarse_generate", reached)
    calls = [
        lambda: st.stride_reconstruct(narrow, m, grid, cfg, sched=sched,
                                      reference=narrow_full),
        lambda: st.stride_reconstruct(masked, m, grid6, cfg, sched=sched,
                                      reference_image=image6),
        lambda: st.run_component_ablation(narrow, m, grid, cfg, narrow_full, sched=sched),
        lambda: st.run_component_ablation(masked, m, grid6, cfg, sino,
                                          reference_image=image6, sched=sched),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="SSIM window"):
            call()
    monkeypatch.undo()
    rows = st.run_lambda_sweep(masked, m, grid6, replace(cfg, ddim_steps=2), sino,
                               reference_image=image6, sched=sched)
    assert all(np.isfinite(r[2]) for r in rows)


def test_one_active_view_with_alignment_fails_before_any_chain_work(monkeypatch):
    phantom, g, sino, m, masked, grid = _small_problem(r=12)
    assert m.n_active == 1
    cfg, sched = _small_cfg()
    # without alignment one view is enough: every row interpolates to it
    res = st.stride_reconstruct(masked, m, grid, replace(cfg, alignment=False),
                                sched=sched)
    assert np.all(np.isfinite(res.image.values))

    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(pipeline, "interpolate_views", reached)
    calls = [
        lambda: st.stride_reconstruct(masked, m, grid, cfg, sched=sched),
        lambda: st.stride_reconstruct(masked, m, grid, replace(cfg, align_per_step=True),
                                      sched=sched),
        lambda: st.run_component_ablation(masked, m, grid, cfg, sino, sched=sched),
        lambda: st.run_lambda_sweep(masked, m, grid, cfg, sino, sched=sched),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="at least 2 active views"):
            call()

def test_omega_needs_a_conditional_model():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg(omega=0.7)
    # the default surrogate is unconditional, so omega would change nothing
    with pytest.raises(InvalidArgumentError, match="omega"):
        st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
    y_s = np.ones((6, 5))
    plain = AnalyticGaussianDenoiser(np.zeros_like(y_s), 1.0, sched)
    with pytest.raises(InvalidArgumentError, match="omega"):
        coarse_generate(y_s, y_s, np.ones(6, bool), plain, sched, cfg,
                        np.random.default_rng(0))


class _CoarseReached(Exception):
    pass


@pytest.mark.parametrize("prior_var,accepted", [(0.05, True), (1e-3, True),
                                                (5e-4, False), (3e-4, False),
                                                (1e-4, False), (1e-5, False)])
def test_reconstruct_rejects_overflowing_langevin_up_front(
        prior_var, accepted, sino180, grid64, monkeypatch):
    # the desk scan with the default schedule; reaching coarse generation
    # means the setting passed the check
    def reached(*args, **kwargs):
        raise _CoarseReached

    monkeypatch.setattr(pipeline, "coarse_generate", reached)
    m = st.make_sparse_mask(180, 3)
    masked = st.apply_mask(sino180, m)
    cfg = PipelineConfig(prior_var=prior_var)
    expected = _CoarseReached if accepted else InvalidArgumentError
    with pytest.raises(expected):
        st.stride_reconstruct(masked, m, grid64, cfg)
    # only the branches that would run under a default Gaussian score count
    off = replace(cfg, corrector=st.CorrectorConfig(lambda_low=0.0, lambda_high=0.0))
    with pytest.raises(_CoarseReached):
        st.stride_reconstruct(masked, m, grid64, off)
    scores = dict(score_low=st.AnalyticGaussianScore(np.zeros(1), 1.0),
                  score_high=st.AnalyticGaussianScore(np.zeros(1), 1.0))
    with pytest.raises(_CoarseReached):
        st.stride_reconstruct(masked, m, grid64, cfg, **scores)
    # a given Gaussian band score is checked under its own variance
    for branch in ("score_low", "score_high"):
        given = {branch: st.AnalyticGaussianScore(np.zeros(1), prior_var)}
        with pytest.raises(expected):
            st.stride_reconstruct(masked, m, grid64, PipelineConfig(), **given)


def test_default_reconstruct_never_evaluates_the_gaussian_band_score(monkeypatch):
    # the default band scores are Gaussian, so refinement runs in closed form
    calls = []
    score = st.AnalyticGaussianScore.score

    def counted(self, y, t):
        calls.append(t)
        return score(self, y, t)

    monkeypatch.setattr(st.AnalyticGaussianScore, "score", counted)
    phantom, g, sino, m, masked, grid = _small_problem()
    res = st.stride_reconstruct(masked, m, grid, PipelineConfig())
    assert [s.stage for s in res.stages][-3:] == ["refined", "final-dc", "fbp"]
    assert calls == []


def test_reconstruct_flag_combinations_run():
    phantom, g, sino, m, masked, grid = _small_problem()
    for over in (dict(align_per_step=True),
                 dict(normalize=False),
                 dict(corrector=st.CorrectorConfig(n_steps=5, lambda_low=0.0,
                                                   lambda_high=0.0)),
                 dict(final_dc="off", alignment=False)):
        cfg, sched = _small_cfg(**over)
        res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
        assert np.all(np.isfinite(res.image.values))


def test_zero_branch_weights_switch_the_branches_off(monkeypatch):
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    steps = cfg.corrector
    none = st.stride_reconstruct(masked, m, grid,
                                 replace(cfg, corrector=replace(steps, n_steps=0)),
                                 sched=sched, reference=sino)
    off = st.stride_reconstruct(
        masked, m, grid,
        replace(cfg, corrector=replace(steps, lambda_low=0.0, lambda_high=0.0)),
        sched=sched, reference=sino)
    assert "refined" not in [s.stage for s in off.stages]
    assert off.sinogram.values.tobytes() == none.sinogram.values.tobytes()
    assert off.image.values.tobytes() == none.image.values.tobytes()

    seen = []
    refine = pipeline.refine_bands

    def spy(bands, score_low, score_high, *args):
        seen.append((score_low, score_high))
        return refine(bands, score_low, score_high, *args)

    monkeypatch.setattr(pipeline, "refine_bands", spy)
    st.stride_reconstruct(masked, m, grid,
                          replace(cfg, corrector=replace(steps, lambda_low=0.0)),
                          sched=sched)
    [(low, high)] = seen
    assert low is None and high is not None


@pytest.mark.parametrize("kind", ["net", "gaussian"])
def test_model_on_another_schedule_is_rejected_before_the_first_step(kind, monkeypatch):
    # a model built on T=10 handed to a chain on the default T=1000 schedule
    phantom, g, sino, m, masked, grid = _small_problem()
    own = st.linear_schedule(T=10)
    if kind == "net":
        model = st.TinyEpsNet(st.init_tiny_net(2, 1, hidden=4, seed=0), own)
    else:
        model = AnalyticGaussianDenoiser(np.zeros(masked.values.shape), 0.05, own)

    def stepped(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(type(model), "predict_eps", stepped)
    cfg = PipelineConfig(ddim_steps=5, corrector=st.CorrectorConfig(n_steps=0))
    with pytest.raises(InvalidArgumentError, match="schedule"):
        st.stride_reconstruct(masked, m, grid, cfg, model=model)
    with pytest.raises(InvalidArgumentError, match="schedule"):
        coarse_generate(masked.values, masked.values, m.active, model, st.linear_schedule(),
                        cfg, np.random.default_rng(0))


def test_ablation_no_alignment_clears_align_per_step():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg(align_per_step=True)
    rows = {name: res for name, _, res in
            st.run_component_ablation(masked, m, grid, cfg, sino, sched=sched)}
    plain = st.stride_reconstruct(masked, m, grid, replace(cfg, alignment=False,
                                                          align_per_step=False),
                                  sched=sched, reference=sino)
    assert np.array_equal(rows["no-alignment"].sinogram.values, plain.sinogram.values)


class _NanScore:
    """A band score that is non-finite from its first call."""

    def score(self, y, t):
        return np.full(np.shape(y), np.nan)


def test_reconstruct_leaves_the_thread_count_unchanged():
    # the chain runs on the calling thread, to the end and through a
    # refinement abort alike
    before = threading.active_count()
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
    with pytest.raises(NumericalAbortError, match="low-band score"):
        st.stride_reconstruct(masked, m, grid, cfg, sched=sched, score_low=_NanScore())
    assert threading.active_count() == before


def test_unguided_chain_matches_manual_loop():
    # nu=0 with every extra stage disabled is exactly an unconditional
    # sampler followed by rescaling and filtered backprojection
    phantom, g, sino, m, masked, grid = _small_problem()
    sched = st.linear_schedule(T=10)
    cfg = PipelineConfig(
        ddim_steps=5,
        guidance=st.GuidanceConfig(mode="temporal", nu=0.0),
        corrector=st.CorrectorConfig(n_steps=0),
        alignment=False,
        final_dc="off",
        seed=3,
    )
    res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched)

    raw = masked.values.astype(np.float64)
    scale = float(np.max(np.abs(raw[m.active])))
    ys_n = raw / scale
    interp = interpolate_views(ys_n, m.active)
    model = AnalyticGaussianDenoiser(interp, cfg.prior_var, sched)
    rng = np.random.default_rng(np.random.SeedSequence([3, 0]))
    y = rng.standard_normal(ys_n.shape)
    ts = ddim_times(10, 5)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        eps_hat = model.predict_eps(y, int(t))
        y0_hat = predict_x0(y, eps_hat, int(t), sched)
        y = st.ddim_step(y, y0_hat, eps_hat, int(t), int(t_prev), sched)
    manual_sino = st.Sinogram(y * scale, masked.geometry)
    manual_img = st.fbp_reconstruct(manual_sino, grid, st.FilterSpec())
    assert np.array_equal(res.sinogram.values, manual_sino.values)
    assert np.array_equal(res.image.values, manual_img.values)


# ------------------------------------------------------------------ baseline


def test_sparse_baseline_matches_manual_composition():
    phantom, g, sino, m, masked, grid = _small_problem()
    base = st.sparse_fbp_baseline(masked, m, grid)
    manual = st.fbp_reconstruct(st.extract_active_views(masked, m), grid,
                                st.FilterSpec())
    assert np.array_equal(base.values, manual.values)
    with pytest.raises(InvalidArgumentError):
        st.sparse_fbp_baseline(masked, st.make_sparse_mask(12, 5), grid)


# ----------------------------------------------------------------- reports


def test_stage_report_csv():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched,
                                reference=sino, reference_image=phantom)
    text = report_to_csv(res.stages)
    lines = text.strip().split("\n")
    assert lines[0] == "stage,mse_masked,mse_full,psnr,ssim"
    assert len(lines) == 1 + len(res.stages)
    assert lines[1].startswith("coarse,")
    assert lines[0] == ",".join(f.name for f in fields(st.StageMetrics))


@pytest.mark.parametrize("with_image", [False, True])
def test_fbp_stage_scores_the_image_directly(with_image):
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched, reference=sino,
                                reference_image=phantom if with_image else None)
    fbp = res.stages[-1]
    assert fbp.stage == "fbp" and np.isnan(fbp.mse_masked)
    got = (fbp.mse_full, fbp.psnr, fbp.ssim)
    if with_image:
        ref, img = phantom.values, res.image.values
        assert got == (st.mse(ref, img), st.psnr(ref, img), st.ssim(ref, img))
    else:
        assert np.isnan(got).all()


# the writers as they were before they shared one CSV formatter
def _old_report_to_csv(rows):
    out = "stage,mse_masked,mse_full,psnr,ssim\n"
    for r in rows:
        out += (f"{r.stage},{r.mse_masked:.10g},{r.mse_full:.10g},"
                f"{r.psnr:.10g},{r.ssim:.10g}\n")
    return out


def _old_ablation_to_csv(rows):
    return "variant,mse_full\n" + "".join(f"{name},{err:.10g}\n" for name, err, _ in rows)


def _old_lambda_sweep_to_csv(rows):
    return "guidance,mse_full,psnr,kl\n" + "".join(
        f"{name},{err:.10g},{pk:.10g},{kl:.10g}\n" for name, err, pk, kl in rows)


def test_csv_writers_byte_equal_to_their_old_form():
    cells = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1.0 / 3, 1e-300, 2.5e17,
             np.float64(0.1), np.float64(-7.25e-8), 12345678901.5]
    stages = [st.StageMetrics(f"s{k}", *np.roll(cells, k)[:4].tolist())
              for k in range(len(cells))]
    assert report_to_csv(stages) == _old_report_to_csv(stages)
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    for ref_img in (None, phantom):
        res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched, reference=sino,
                                    reference_image=ref_img)
        assert report_to_csv(res.stages) == _old_report_to_csv(res.stages)
    ablation = [(f"v{k}", c, None) for k, c in enumerate(cells)]
    assert st.ablation_to_csv(ablation) == _old_ablation_to_csv(ablation)
    sweep = [(f"g{k}", *np.roll(cells, k)[:3]) for k in range(len(cells))]
    assert st.lambda_sweep_to_csv(sweep) == _old_lambda_sweep_to_csv(sweep)
    assert st.ablation_to_csv([]) == "variant,mse_full\n"


def test_component_ablation_rows():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    rows = st.run_component_ablation(masked, m, grid, cfg, sino, sched=sched)
    names = [name for name, _, _ in rows]
    assert names == ["full", "no-guidance", "no-alignment", "no-low-band",
                     "no-high-band"]
    direct = st.stride_reconstruct(masked, m, grid, cfg, reference=sino,
                                   sched=sched)
    assert np.array_equal(rows[0][2].sinogram.values, direct.sinogram.values)
    csv = st.ablation_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "variant,mse_full"
    assert len(lines) == 6


def test_lambda_sweep_rows():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg(corrector=st.CorrectorConfig(n_steps=0))
    rows = st.run_lambda_sweep(masked, m, grid, cfg, sino,
                               reference_image=phantom, sched=sched)
    names = [r[0] for r in rows]
    assert names == [f"fixed-{k / 10.0:.1f}" for k in range(11)] + ["temporal"]
    assert all(np.isfinite(r[1]) and np.isfinite(r[3]) for r in rows)
    csv = st.lambda_sweep_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "guidance,mse_full,psnr,kl"
    assert len(lines) == 13


# sweep routes: (problem kwargs, config changes, given model or None, whether
# the coarse stage runs on the observed rows only after the first setting)
_SWEEP_ROUTES = {
    "corrector-off": ({}, dict(corrector=st.CorrectorConfig(n_steps=0)), None, True),
    "corrector-on": ({}, {}, None, True),
    "sigma": ({}, dict(sigma_ddim=0.3), None, False),
    "align-per-step": ({}, dict(align_per_step=True), None, False),
    "no-alignment": ({}, dict(alignment=False), None, True),
    "final-dc-off": ({}, dict(final_dc="off"), None, True),
    "no-normalize": ({}, dict(normalize=False), None, True),
    "stride-2": (dict(r=2), {}, None, True),
    "stride-4": (dict(r=4), {}, None, True),
    "coupled": ({}, {}, "coupled", False),
    "given-gaussian": ({}, {}, "gaussian", True),
}


def _route(routes, route):
    problem, over, given, observed_only = routes[route]
    phantom, g, sino, m, masked, grid = _small_problem(**problem)
    cfg, sched = _small_cfg(**over)
    kwargs = dict(sched=sched)
    if given is not None:
        prior = interpolate_views(masked.values / np.max(np.abs(masked.values)), m.active)
        kwargs["model"] = (st.CoupledGaussianDenoiser(prior, 0.05, sched, mix=0.5)
                           if given == "coupled"
                           else AnalyticGaussianDenoiser(prior, 0.05, sched))
    return phantom, sino, m, masked, grid, cfg, kwargs, observed_only


@pytest.mark.parametrize("route", sorted(_SWEEP_ROUTES))
def test_lambda_sweep_table_unchanged_without_stage_metrics(route, monkeypatch):
    phantom, sino, m, masked, grid, cfg, kwargs, _ = _route(_SWEEP_ROUTES, route)
    # the table as first computed: each chain run with the references
    ref = np.asarray(sino.values, dtype=np.float64)
    guides = [(f"fixed-{k / 10.0:.1f}", st.GuidanceConfig(mode="fixed", nu=k / 10.0))
              for k in range(11)]
    guides.append(("temporal", st.GuidanceConfig(mode="temporal", nu=cfg.guidance.nu)))
    expect = []
    for name, guide in guides:
        res = st.stride_reconstruct(masked, m, grid, replace(cfg, guidance=guide),
                                    reference=sino, reference_image=phantom, **kwargs)
        out = np.asarray(res.sinogram.values)
        expect.append((name, st.mse(ref, out), st.psnr(phantom.values, res.image.values),
                       st.kl_divergence(ref, out)))
    calls = []

    def counted_ssim(*args, **kwargs):
        calls.append(args)
        return st.ssim(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ssim", counted_ssim)
    rows = st.run_lambda_sweep(masked, m, grid, cfg, sino, reference_image=phantom,
                               **kwargs)
    assert rows == expect
    assert calls == []


@pytest.mark.parametrize("route", sorted(_SWEEP_ROUTES))
def test_lambda_sweep_shares_its_set_up_and_unobserved_rows(route, monkeypatch):
    # set-up runs once; with a pixelwise model (the set-up's surrogate or a
    # given Gaussian), sigma_ddim = 0 and no per-step alignment, only the
    # first setting's coarse stage sees every row, and the other 11 see the
    # observed rows alone
    phantom, sino, m, masked, grid, cfg, kwargs, observed_only = _route(_SWEEP_ROUTES, route)
    model_cls = type(kwargs.get("model", AnalyticGaussianDenoiser(0.0, 1.0, kwargs["sched"])))
    shapes, interps = [], []
    predict = model_cls.predict_eps
    interp = pipeline.interpolate_views

    def counted_predict(self, y_t, t, condition=None):
        shapes.append(np.shape(y_t))
        return predict(self, y_t, t, condition)

    def counted_interp(*args):
        interps.append(args)
        return interp(*args)

    monkeypatch.setattr(model_cls, "predict_eps", counted_predict)
    monkeypatch.setattr(pipeline, "interpolate_views", counted_interp)
    st.run_lambda_sweep(masked, m, grid, cfg, sino, **kwargs)
    full = masked.values.shape
    steps = cfg.ddim_steps
    assert len(interps) == 1
    if observed_only:
        assert shapes == [full] * steps + [(m.n_active, full[1])] * (11 * steps)
    else:
        assert shapes == [full] * (12 * steps)


@pytest.mark.parametrize("route", sorted(_SWEEP_ROUTES))
def test_lambda_sweep_backprojects_through_one_plan(route, monkeypatch):
    phantom, sino, m, masked, grid, cfg, kwargs, _ = _route(_SWEEP_ROUTES, route)
    plans, used = [], []
    make_plan = pipeline.backprojection_plan
    backproject = fbp.fan_backproject

    def counted_plan(*args):
        plans.append(make_plan(*args))
        return plans[-1]

    def counted_backproject(*args, plan=None):
        used.append(plan)
        return backproject(*args, plan=plan)

    monkeypatch.setattr(pipeline, "backprojection_plan", counted_plan)
    monkeypatch.setattr(fbp, "fan_backproject", counted_backproject)
    st.run_lambda_sweep(masked, m, grid, cfg, sino, **kwargs)
    assert len(plans) == 1
    assert len(used) == 12 and all(p is plans[0] for p in used)


# ablation routes, in the sweep routes' form
_ABLATION_ROUTES = {
    "default": ({}, {}, None, True),
    "align-per-step": ({}, dict(align_per_step=True), None, False),
    "sigma": ({}, dict(sigma_ddim=0.3), None, False),
    "no-high-band": ({}, dict(corrector=st.CorrectorConfig(n_steps=5, eps_start=1e-4,
                                                           eps_end=1e-6, lambda_high=0.0)),
                     None, True),
    "corrector-off": ({}, dict(corrector=st.CorrectorConfig(n_steps=0)), None, True),
    "coupled": ({}, {}, "coupled", False),
    "fixed-0.4": ({}, dict(guidance=st.GuidanceConfig(mode="fixed", nu=0.4)), None, True),
}


@pytest.mark.parametrize("route", sorted(_ABLATION_ROUTES))
def test_every_ablation_row_equals_its_own_chain(route):
    phantom, sino, m, masked, grid, cfg, kwargs, _ = _route(_ABLATION_ROUTES, route)
    variants = {
        "full": cfg,
        "no-guidance": replace(cfg, guidance=st.GuidanceConfig(mode="fixed", nu=0.0)),
        "no-alignment": replace(cfg, alignment=False, align_per_step=False),
        "no-low-band": replace(cfg, corrector=replace(cfg.corrector, lambda_low=0.0)),
        "no-high-band": replace(cfg, corrector=replace(cfg.corrector, lambda_high=0.0)),
    }
    rows = st.run_component_ablation(masked, m, grid, cfg, sino, reference_image=phantom,
                                     **kwargs)
    assert [name for name, _, _ in rows] == list(variants)
    for (name, err, res), variant in zip(rows, variants.values()):
        own = st.stride_reconstruct(masked, m, grid, variant, reference=sino,
                                    reference_image=phantom, **kwargs)
        assert res.image.values.tobytes() == own.image.values.tobytes(), name
        assert res.sinogram.values.tobytes() == own.sinogram.values.tobytes(), name
        assert report_to_csv(res.stages) == report_to_csv(own.stages), name
        assert res.alignment == own.alignment, name
        assert err == st.mse(sino.values, own.sinogram.values), name


@pytest.mark.parametrize("route", sorted(_ABLATION_ROUTES))
def test_ablation_shares_its_set_up_unobserved_rows_and_plan(route, monkeypatch):
    # the sweep's rule: one set-up and one plan for the 5 FBPs; under a
    # pixelwise model with deterministic steps, chains after the first run
    # DDIM on the observed rows only
    phantom, sino, m, masked, grid, cfg, kwargs, observed_only = _route(_ABLATION_ROUTES, route)
    model_cls = type(kwargs.get("model", AnalyticGaussianDenoiser(0.0, 1.0, kwargs["sched"])))
    shapes, interps, plans, used = [], [], [], []
    predict = model_cls.predict_eps
    interp = pipeline.interpolate_views
    make_plan = pipeline.backprojection_plan
    backproject = fbp.fan_backproject

    def counted_predict(self, y_t, t, condition=None):
        shapes.append(np.shape(y_t))
        return predict(self, y_t, t, condition)

    def counted_interp(*args):
        interps.append(args)
        return interp(*args)

    def counted_plan(*args):
        plans.append(make_plan(*args))
        return plans[-1]

    def counted_backproject(*args, plan=None):
        used.append(plan)
        return backproject(*args, plan=plan)

    monkeypatch.setattr(model_cls, "predict_eps", counted_predict)
    monkeypatch.setattr(pipeline, "interpolate_views", counted_interp)
    monkeypatch.setattr(pipeline, "backprojection_plan", counted_plan)
    monkeypatch.setattr(fbp, "fan_backproject", counted_backproject)
    st.run_component_ablation(masked, m, grid, cfg, sino, **kwargs)
    full = masked.values.shape
    steps = cfg.ddim_steps
    assert len(interps) == 1
    assert len(plans) == 1
    assert len(used) == 5 and all(p is plans[0] for p in used)
    if observed_only:
        assert shapes == [full] * steps + [(m.n_active, full[1])] * (4 * steps)
    else:
        assert shapes == [full] * (5 * steps)


def test_single_chain_builds_no_plan_and_no_observed_row_model(monkeypatch):
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    models, used = [], []
    make_model = pipeline.AnalyticGaussianDenoiser
    backproject = fbp.fan_backproject

    def no_plan(*args):
        raise AssertionError("a plan was built")

    def counted_model(*args):
        models.append(args)
        return make_model(*args)

    def counted_backproject(*args, plan=None):
        used.append(plan)
        return backproject(*args, plan=plan)

    monkeypatch.setattr(pipeline, "backprojection_plan", no_plan)
    monkeypatch.setattr(pipeline, "AnalyticGaussianDenoiser", counted_model)
    monkeypatch.setattr(fbp, "fan_backproject", counted_backproject)
    st.stride_reconstruct(masked, m, grid, cfg, sched=sched, reference=sino,
                          reference_image=phantom)
    assert len(models) == 1  # the surrogate on every row
    assert used == [None]


# ---------------------------------------------------------------- row tiles

# 40 pixels a tile: the 20 x 16 problem's rows run in 7 tiles (six of 3
# rows, then 2), and its 7 observed rows in 3 (3, 3, then 1)
_SMALL_TILE = 40


def _counted_coarse(monkeypatch):
    """The row counts of every coarse_generate call, in order."""
    calls = []
    generate = pipeline.coarse_generate

    def counted(y_T, *args):
        calls.append(np.shape(y_T)[0])
        return generate(y_T, *args)

    monkeypatch.setattr(pipeline, "coarse_generate", counted)
    return calls


def _same_result(a, b):
    assert a.image.values.tobytes() == b.image.values.tobytes()
    assert a.sinogram.values.tobytes() == b.sinogram.values.tobytes()
    assert report_to_csv(a.stages) == report_to_csv(b.stages)
    assert a.alignment == b.alignment


def test_row_tiles_cover_the_rows_in_equal_blocks():
    assert pipeline._row_tiles(180, 256) == [slice(0, 90), slice(90, 180)]
    assert pipeline._row_tiles(60, 256) == [slice(0, 60)]
    assert len(pipeline._row_tiles(240, 384)) == 3
    for n_rows, n_cols in [(1, 1), (7, 16), (20, 16), (720, 384), (13, 5000)]:
        tiles = pipeline._row_tiles(n_rows, n_cols)
        assert len(tiles) <= -(-n_rows * n_cols // pipeline._TILE)
        blocks = [range(n_rows)[t] for t in tiles]
        assert [r for b in blocks for r in b] == list(range(n_rows))
        heights = [len(b) for b in blocks]
        assert len(set(heights[:-1])) <= 1 and 0 < heights[-1] <= heights[0]


@pytest.mark.parametrize("guidance", [st.GuidanceConfig(mode="temporal", nu=0.9)]
                         + [st.GuidanceConfig(mode="fixed", nu=nu) for nu in (0.0, 0.5, 1.0)],
                         ids=["temporal", "fixed-0", "fixed-0.5", "fixed-1"])
def test_tiled_chain_equals_one_tile(guidance, monkeypatch):
    phantom, g, sino, m, masked, grid = _small_problem(n_views=20)
    cfg, sched = _small_cfg(guidance=guidance)
    kwargs = dict(sched=sched, reference=sino, reference_image=phantom)
    one = st.stride_reconstruct(masked, m, grid, cfg, **kwargs)
    # a given pixelwise model, here the set-up's surrogate built by hand, is
    # tiled as the surrogate is
    prior = interpolate_views(masked.values / np.max(np.abs(masked.values)), m.active)
    given = AnalyticGaussianDenoiser(prior, 0.05, sched)
    monkeypatch.setattr(pipeline, "_TILE", _SMALL_TILE)
    calls = _counted_coarse(monkeypatch)
    for model in (None, given):
        _same_result(st.stride_reconstruct(masked, m, grid, cfg, model=model, **kwargs), one)
        assert calls == [3] * 6 + [2]
        del calls[:]


@pytest.mark.parametrize("extra", [-1, 1])
def test_tiled_given_model_of_other_rows_is_refused(extra, monkeypatch):
    # a tile's rows of the model may fit the tile, as a mean of one row
    # broadcasts, while the whole model does not fit y_T
    phantom, g, sino, m, masked, grid = _small_problem(n_views=20)
    cfg, sched = _small_cfg()
    model = AnalyticGaussianDenoiser(np.zeros((20 + extra, 16)), 0.05, sched)
    monkeypatch.setattr(pipeline, "_TILE", _SMALL_TILE)
    with pytest.raises(ShapeMismatchError, match=rf"\(20,\).*\({20 + extra}, 16\)"):
        st.stride_reconstruct(masked, m, grid, cfg, model=model, sched=sched)


def test_tiled_sweep_and_ablation_rows_equal_their_own_chains(monkeypatch):
    phantom, g, sino, m, masked, grid = _small_problem(n_views=20)
    cfg, sched = _small_cfg()
    monkeypatch.setattr(pipeline, "_TILE", _SMALL_TILE)
    calls = _counted_coarse(monkeypatch)
    first = [3] * 6 + [2]
    sweep = st.run_lambda_sweep(masked, m, grid, cfg, sino, reference_image=phantom,
                                sched=sched)
    assert calls == first + [3, 3, 1] * 11
    del calls[:]
    ablation = st.run_component_ablation(masked, m, grid, cfg, sino,
                                         reference_image=phantom, sched=sched)
    assert calls == first + [3, 3, 1] * 4
    guides = [st.GuidanceConfig(mode="fixed", nu=k / 10.0) for k in range(11)]
    guides.append(st.GuidanceConfig(mode="temporal", nu=cfg.guidance.nu))
    for (name, err, pk, kl), guide in zip(sweep, guides, strict=True):
        own = st.stride_reconstruct(masked, m, grid, replace(cfg, guidance=guide),
                                    sched=sched)
        out = own.sinogram.values
        assert (err, pk, kl) == (st.mse(sino.values, out),
                                 st.psnr(phantom.values, own.image.values),
                                 st.kl_divergence(sino.values, out)), name
    for (name, err, res), (_, variant) in zip(ablation, pipeline._ablation_variants(cfg),
                                              strict=True):
        own = st.stride_reconstruct(masked, m, grid, variant, sched=sched, reference=sino,
                                    reference_image=phantom)
        _same_result(res, own)
        assert err == st.mse(sino.values, own.sinogram.values), name


@pytest.mark.parametrize("route", ["given-model", "sigma", "align-per-step"])
def test_untiled_routes_run_one_coarse_call_per_chain(route, monkeypatch):
    phantom, g, sino, m, masked, grid = _small_problem(n_views=20)
    over = {"sigma": dict(sigma_ddim=0.3), "align-per-step": dict(align_per_step=True)}
    cfg, sched = _small_cfg(**over.get(route, {}))
    kwargs = dict(sched=sched)
    if route == "given-model":  # a model that mixes rows stays untiled
        prior = interpolate_views(masked.values / np.max(np.abs(masked.values)), m.active)
        kwargs["model"] = st.CoupledGaussianDenoiser(prior, 0.05, sched, mix=0.5)
    monkeypatch.setattr(pipeline, "_TILE", _SMALL_TILE)
    calls = _counted_coarse(monkeypatch)
    st.stride_reconstruct(masked, m, grid, cfg, **kwargs)
    assert calls == [20]
    del calls[:]
    st.run_component_ablation(masked, m, grid, cfg, sino, **kwargs)
    assert calls == [20] * 5


def test_stride_reconstruct_runs_the_chain_driver_to_its_end(monkeypatch):
    # a driver left suspended holds its chain's arrays until it is dropped
    ends = []
    chains = pipeline._chains

    def watched(*args, **kwargs):
        try:
            yield from chains(*args, **kwargs)
        except GeneratorExit:
            ends.append("closed")
            raise
        ends.append("exhausted")

    monkeypatch.setattr(pipeline, "_chains", watched)
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
    assert ends == ["exhausted"]
