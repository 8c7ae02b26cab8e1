"""The chain's fast paths, checked byte for byte against their plain forms
on small problems that hypothesis draws: row tiles down to one row, the
observed-row reruns of sweeps and ablations, a given pixelwise model, the
all-observed guidance and the vectorised view interpolation."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import stridect as st
import stridect.pipeline as pipeline
from stridect.pipeline import PipelineConfig, coarse_generate, interpolate_views, report_to_csv

_SCHED = st.linear_schedule(T=10)
_SETTINGS = dict(derandomize=True, deadline=None, database=None)


@hst.composite
def _problems(draw, min_size=4):
    """A projected phantom on a full or half scan, with a stride mask or a
    random mask keeping at least 2 views."""
    n_views = draw(hst.integers(max(4, min_size), 24))
    n_det = draw(hst.integers(max(4, min_size), 24))
    nx = draw(hst.integers(max(4, min_size), 16))
    g = st.desk_geometry(n_views, n_det, nx)
    if draw(hst.booleans()):
        g = replace(g, angular_range=(0.0, math.pi))
    if draw(hst.booleans()):
        m = st.make_sparse_mask(n_views, draw(hst.integers(1, (n_views + 1) // 2)))
    else:
        flags = np.zeros(n_views, bool)
        flags[list(draw(hst.sets(hst.integers(0, n_views - 1), min_size=2)))] = True
        m = SimpleNamespace(active=flags, n_active=int(flags.sum()))
    phantom = st.shepp_logan(nx, nx)
    full = st.forward_project(phantom, g)
    masked = st.Sinogram(st.mask_rows(full.values, m.active), g)
    grid = st.ImageGrid(nx, nx, 1.0, np.zeros((nx, nx)))
    return phantom, full, m, masked, grid


_guidance = hst.builds(st.GuidanceConfig, mode=hst.sampled_from(["fixed", "temporal"]),
                       nu=hst.sampled_from([0.0, 1.0]) | hst.floats(0.0, 1.0))
# pixels a tile: 1 puts every row in a tile of its own
_tiles = hst.integers(1, 200)


def _cfg(guidance, corrector_steps=5):
    return PipelineConfig(ddim_steps=4, guidance=guidance,
                          corrector=st.CorrectorConfig(n_steps=corrector_steps, eps_start=1e-4,
                                                       eps_end=1e-6))


def _surrogate(masked, m, cfg):
    """The set-up's surrogate, built by hand."""
    raw = masked.values
    prior = interpolate_views(raw / np.max(np.abs(raw[m.active])), m.active)
    return st.AnalyticGaussianDenoiser(prior, cfg.prior_var, _SCHED)


def _same_result(a, b):
    assert a.image.values.tobytes() == b.image.values.tobytes()
    assert a.sinogram.values.tobytes() == b.sinogram.values.tobytes()
    assert report_to_csv(a.stages) == report_to_csv(b.stages)
    assert a.alignment == b.alignment


@settings(max_examples=12, **_SETTINGS)
@given(_problems(), _tiles, _guidance)
def test_tiled_chain_and_given_model_equal_one_tile(problem, tile, guidance):
    phantom, full, m, masked, grid = problem
    cfg = _cfg(guidance)
    kwargs = dict(sched=_SCHED)
    one = st.stride_reconstruct(masked, m, grid, cfg, **kwargs)
    given_model = _surrogate(masked, m, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_TILE", tile)
        _same_result(st.stride_reconstruct(masked, m, grid, cfg, **kwargs), one)
        _same_result(st.stride_reconstruct(masked, m, grid, cfg, model=given_model, **kwargs),
                     one)


def _bytes(row):
    return np.array(row, dtype=np.float64).tobytes()


@settings(max_examples=10, **_SETTINGS)
@given(_problems(), _tiles, hst.floats(0.0, 1.0), hst.booleans())
def test_sweep_rows_equal_their_own_chains(problem, tile, nu, given_model):
    phantom, full, m, masked, grid = problem
    cfg = _cfg(st.GuidanceConfig(mode="temporal", nu=nu), corrector_steps=0)
    kwargs = dict(sched=_SCHED)
    if given_model:
        kwargs["model"] = _surrogate(masked, m, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_TILE", tile)
        rows = st.run_lambda_sweep(masked, m, grid, cfg, full, reference_image=phantom,
                                   **kwargs)
    guides = [st.GuidanceConfig(mode="fixed", nu=k / 10.0) for k in range(11)]
    guides.append(st.GuidanceConfig(mode="temporal", nu=nu))
    for (name, *row), guide in zip(rows, guides, strict=True):
        own = st.stride_reconstruct(masked, m, grid, replace(cfg, guidance=guide), sched=_SCHED)
        out = own.sinogram.values
        expect = (st.mse(full.values, out), st.psnr(phantom.values, own.image.values),
                  st.kl_divergence(full.values, out))
        assert _bytes(row) == _bytes(expect), name


@settings(max_examples=10, **_SETTINGS)
@given(_problems(min_size=7), _tiles, _guidance, hst.booleans())
def test_ablation_rows_equal_their_own_chains(problem, tile, guidance, given_model):
    # references are scored by SSIM, whose 7-wide window needs 7 pixels a side
    phantom, full, m, masked, grid = problem
    cfg = _cfg(guidance)
    kwargs = dict(sched=_SCHED)
    if given_model:
        kwargs["model"] = _surrogate(masked, m, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_TILE", tile)
        rows = st.run_component_ablation(masked, m, grid, cfg, full,
                                         reference_image=phantom, **kwargs)
    for (name, err, res), (_, variant) in zip(rows, pipeline._ablation_variants(cfg),
                                              strict=True):
        own = st.stride_reconstruct(masked, m, grid, variant, sched=_SCHED, reference=full,
                                    reference_image=phantom)
        _same_result(res, own)
        assert _bytes(err) == _bytes(st.mse(full.values, own.sinogram.values)), name


@settings(max_examples=25, **_SETTINGS)
@given(hst.integers(1, 12), hst.integers(1, 12), hst.integers(1, 10), _guidance,
       hst.sampled_from([0.0, 0.3]), hst.integers(0, 2**16))
def test_all_observed_coarse_generate_equals_the_public_step_loop(n_rows, n_cols, steps,
                                                                   guidance, sigma, seed):
    rng = np.random.default_rng(seed)
    y_s = rng.normal(size=(n_rows, n_cols))
    y_T = rng.standard_normal(y_s.shape)
    active = np.ones(n_rows, bool)
    model = st.AnalyticGaussianDenoiser(rng.normal(size=y_s.shape), 0.05, _SCHED)
    cfg = PipelineConfig(ddim_steps=steps, sigma_ddim=sigma, guidance=guidance)
    out = coarse_generate(y_T, y_s, active, model, _SCHED, cfg, np.random.default_rng(seed))
    step_rng = np.random.default_rng(seed)
    y = y_T
    ts = st.ddim_times(_SCHED.T, steps)
    for t, t_prev in zip(ts[:-1].tolist(), ts[1:].tolist()):
        eps_hat = model.predict_eps(y, t, None)
        y0_hat = st.predict_x0(y, eps_hat, t, _SCHED)
        lam = st.guidance_weight(t, guidance, _SCHED.T)
        y0_hat = st.apply_sparse_guidance(y0_hat, y_s, active, lam)
        y = st.ddim_step(y, y0_hat, eps_hat, t, t_prev, _SCHED, sigma, step_rng)
    assert out.tobytes() == y.tobytes()


# equal knots, signed zeros, and values whose slopes overflow or are nan
_values = hst.floats(-1e6, 1e6) | hst.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308,
                                                    math.inf, -math.inf, math.nan])


@settings(max_examples=40, **_SETTINGS)
@given(hst.integers(1, 24).flatmap(lambda n: hst.tuples(
    hst.lists(hst.booleans(), min_size=n, max_size=n).filter(any),
    hst.integers(1, 6).flatmap(lambda d: hst.lists(
        hst.lists(_values, min_size=d, max_size=d), min_size=n, max_size=n)))))
def test_interpolate_views_equals_a_column_loop_of_np_interp(case):
    flags, values = case
    active = np.array(flags)
    values = np.array(values)
    n = len(values)
    rows = np.arange(n, dtype=np.float64)
    expect = np.stack([np.interp(rows, rows[active], values[active, j], period=n)
                       for j in range(values.shape[1])], axis=1)
    assert interpolate_views(values, active).tobytes() == expect.tobytes()
