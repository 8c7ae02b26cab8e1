"""End-to-end reconstruction chain: stages, ablations, CSV reports."""

from dataclasses import replace

import numpy as np
import pytest

import stridect as st
import stridect.pipeline as pipeline
from stridect.denoiser import AnalyticGaussianDenoiser
from stridect.diffusion import predict_x0
from stridect.errors import InvalidArgumentError, ShapeMismatchError
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
        guidance=st.GuidanceConfig(mode="temporal", nu=0.9, T=10),
        corrector=st.CorrectorConfig(n_steps=5, eps_start=1e-4, eps_end=1e-6),
    )
    base.update(over)
    return PipelineConfig(**base), sched


# -------------------------------------------------------------- time ladder


def test_ddim_times_ladder():
    ts = ddim_times(1000, 100)
    assert ts[0] == 1000 and ts[-1] == 0
    assert len(ts) == 101
    assert np.all(np.diff(ts) < 0)
    full = ddim_times(10, 10)
    assert np.array_equal(full, np.arange(10, -1, -1))


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


# ---------------------------------------------------------- coarse generate


def test_coarse_generate_full_clamp_reproduces_input():
    # every row observed and lambda pinned to 1: the chain must land on the
    # observation exactly, because the last step returns the clamped estimate
    rng = np.random.default_rng(1)
    y_s = rng.normal(size=(6, 5)) + 3.0
    active = np.ones(6, bool)
    sched = st.linear_schedule(T=10)
    cfg, _ = _small_cfg(guidance=st.GuidanceConfig(mode="fixed", fixed_lambda=1.0, T=10))
    model = AnalyticGaussianDenoiser(np.zeros_like(y_s), 1.0, sched)
    out = coarse_generate(y_s, active, model, sched, cfg,
                          np.random.default_rng(2))
    assert np.array_equal(out, y_s)


def test_coarse_generate_optimal_needs_reference():
    sched = st.linear_schedule(T=10)
    cfg, _ = _small_cfg(guidance=st.GuidanceConfig(mode="optimal-closed-form", T=10))
    y_s = np.ones((6, 5))
    model = AnalyticGaussianDenoiser(np.zeros_like(y_s), 1.0, sched)
    with pytest.raises(InvalidArgumentError):
        coarse_generate(y_s, np.ones(6, bool), model, sched, cfg,
                        np.random.default_rng(0))


def test_coarse_generate_optimal_modes_run():
    rng = np.random.default_rng(3)
    y_s = rng.normal(size=(6, 5))
    active = st.make_sparse_mask(6, 2).active
    sched = st.linear_schedule(T=10)
    model = AnalyticGaussianDenoiser(np.zeros_like(y_s), 1.0, sched)
    for mode in ("optimal-closed-form", "optimal-oracle"):
        cfg, _ = _small_cfg(guidance=st.GuidanceConfig(mode=mode, T=10))
        out = coarse_generate(y_s, active, model, sched, cfg,
                              np.random.default_rng(4), reference=y_s)
        assert np.all(np.isfinite(out))


# ------------------------------------------------------------ full pipeline


def test_reconstruct_final_dc_pins_active_rows():
    phantom, g, sino, m, masked, grid = _small_problem()
    cfg, sched = _small_cfg()
    res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
    assert isinstance(res, ReconstructionResult)
    assert np.array_equal(res.sinogram.values[m.active],
                          masked.values[m.active])
    assert res.sinogram.geometry is masked.geometry


def test_reconstruct_trust_dc_full_mask_pins_everything():
    phantom, g, sino, m, masked, grid = _small_problem(r=1)
    cfg, sched = _small_cfg(final_dc="trust")
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
    bad_cfg, _ = _small_cfg(guidance=st.GuidanceConfig(mode="temporal", T=99))
    with pytest.raises(InvalidArgumentError):
        st.stride_reconstruct(masked, m, grid, bad_cfg, sched=sched)


class _CoarseReached(Exception):
    pass


@pytest.mark.parametrize("prior_var,accepted", [(0.05, True), (1e-3, True),
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
    cfg = PipelineConfig()
    expected = _CoarseReached if accepted else InvalidArgumentError
    with pytest.raises(expected):
        st.stride_reconstruct(masked, m, grid64, cfg, prior_var=prior_var)
    # only the branches that would run under a default Gaussian score count
    off = replace(cfg, low_band=False, high_band=False)
    with pytest.raises(_CoarseReached):
        st.stride_reconstruct(masked, m, grid64, off, prior_var=prior_var)
    scores = dict(score_low=st.AnalyticGaussianScore(np.zeros(1), 1.0),
                  score_high=st.AnalyticGaussianScore(np.zeros(1), 1.0))
    with pytest.raises(_CoarseReached):
        st.stride_reconstruct(masked, m, grid64, cfg, prior_var=prior_var, **scores)


def test_reconstruct_flag_combinations_run():
    phantom, g, sino, m, masked, grid = _small_problem()
    for over in (dict(align_per_step=True),
                 dict(normalize=False),
                 dict(low_band=False, high_band=False),
                 dict(final_dc="off", alignment=False)):
        cfg, sched = _small_cfg(**over)
        res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched)
        assert np.all(np.isfinite(res.image.values))


def test_unguided_chain_matches_manual_loop():
    # nu=0 with every extra stage disabled is exactly an unconditional
    # sampler followed by rescaling and filtered backprojection
    phantom, g, sino, m, masked, grid = _small_problem()
    sched = st.linear_schedule(T=10)
    cfg = PipelineConfig(
        ddim_steps=5,
        guidance=st.GuidanceConfig(mode="temporal", nu=0.0, T=10),
        corrector=st.CorrectorConfig(n_steps=0),
        alignment=False,
        final_dc="off",
        seed=3,
    )
    prior_var = 0.05
    res = st.stride_reconstruct(masked, m, grid, cfg, sched=sched,
                                prior_var=prior_var)

    raw = masked.values.astype(np.float64)
    scale = float(np.max(np.abs(raw[m.active])))
    ys_n = raw / scale
    interp = interpolate_views(ys_n, m.active)
    model = AnalyticGaussianDenoiser(interp, prior_var, sched)
    rng = np.random.default_rng(np.random.SeedSequence([3, 0]))
    y = rng.standard_normal(ys_n.shape)
    ts = ddim_times(10, 5)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        eps_hat = model.predict_eps(y, int(t))
        y0_hat = predict_x0(y, eps_hat, int(t), sched)
        y = st.ddim_step(y, y0_hat, eps_hat, int(t), int(t_prev), sched)
    manual_sino = st.Sinogram(y * scale, masked.geometry)
    manual_img = st.fbp_reconstruct(manual_sino, grid, cfg.filter,
                                    pre_weight=True, weighting="literal")
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
