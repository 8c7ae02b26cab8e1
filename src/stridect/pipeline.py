"""End-to-end sparse-view reconstruction.

Stages: mask-conditioned coarse generation (DDIM with sparse guidance),
linear distribution alignment on observed rows, dual-band Langevin
refinement in the stationary wavelet domain, a final data-consistency
replacement, and fan-beam filtered backprojection. Each stage snapshot is
scored so component contributions can be reported and ablated.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .corrector import (AlignmentParams, CorrectorConfig, apply_linear_alignment,
                        check_refinement, data_consistency, fit_linear_alignment,
                        refine_bands)
from .denoiser import AnalyticGaussianDenoiser, AnalyticGaussianScore
from .diffusion import (GuidanceConfig, LambdaInputs, NoiseSchedule,
                        _ddim_update, _guidance_lambda, _guide_rows,
                        _predict_x0, cfg_combine, guidance_weight,
                        linear_schedule, optimal_lambda)
# the public step functions stay attributes of this module, where call
# tracers look them up, though coarse_generate runs their in-place forms
from .diffusion import apply_sparse_guidance, ddim_step, predict_x0  # noqa: F401
from .errors import InvalidArgumentError, ShapeMismatchError
from .evalkit import kl_divergence, mse, psnr, ssim
from .fbp import FilterSpec, check_weighting, extract_active_views, fbp_reconstruct
from .geometry import ImageGrid, SparseMask, Sinogram, apply_mask, mask_rows
from .wavelet import filter_pair, iswt_reconstruct, swt_decompose


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full reconstruction chain.

    final_dc selects whether the observed views are overwritten with the
    measured rows after refinement: "active" or "off". An unknown final_dc,
    weighting or wavelet is rejected here, before any chain work.
    """

    ddim_steps: int = 100
    sigma_ddim: float = 0.0
    omega: float = 0.0
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    corrector: CorrectorConfig = field(default_factory=CorrectorConfig)
    alignment: bool = True
    align_per_step: bool = False
    low_band: bool = True
    high_band: bool = True
    wavelet: str = "haar"
    final_dc: str = "active"
    normalize: bool = True
    filter: FilterSpec = field(default_factory=FilterSpec)
    pre_weight: bool = True
    weighting: str = "literal"
    seed: int = 0

    def __post_init__(self):
        if self.ddim_steps < 1:
            raise InvalidArgumentError("ddim_steps must be >= 1")
        if self.final_dc not in ("active", "off"):
            raise InvalidArgumentError("final_dc must be active or off")
        check_weighting(self.weighting)
        filter_pair(self.wavelet)


@dataclass(frozen=True)
class StageMetrics:
    """Per-stage error report; nan fields mean no reference was supplied."""

    stage: str
    mse_masked: float
    mse_full: float
    psnr: float
    ssim: float


def ddim_times(T: int, steps: int) -> np.ndarray:
    """Strictly decreasing timestep ladder T = t_0 > ... > t_steps = 0."""
    if not 1 <= steps <= T:
        raise InvalidArgumentError("steps must lie in [1, T]")
    ts = np.rint(np.linspace(T, 0, steps + 1)).astype(int)
    if np.any(np.diff(ts) >= 0):
        raise InvalidArgumentError("steps do not map to distinct timesteps")
    return ts


def interpolate_views(values, active):
    """Fill unobserved rows by periodic linear interpolation along views."""
    values = np.asarray(values, dtype=np.float64)
    active = np.asarray(active, bool)
    if not active.any():
        raise InvalidArgumentError("no active views to interpolate from")
    n = values.shape[0]
    rows = np.arange(n, dtype=np.float64)
    # np.interp(rows, rows[active], column, period=n) for all columns at
    # once, by numpy's own rule: knots padded by one period on each side,
    # slope[j] * (x - xp[j]) + fp[j] between knots j and j + 1, fp[j] where
    # x == xp[j], and the other end's form where that gives nan
    xp = rows[active]
    xp = np.concatenate((xp[-1:] - n, xp, xp[:1] + n))
    fp = values[active]
    fp = np.concatenate((fp[-1:], fp, fp[:1]))
    j = np.searchsorted(xp, rows, side="right") - 1
    with np.errstate(invalid="ignore"):  # np.interp does not warn on inf
        slope = np.diff(fp, axis=0) / np.diff(xp)[:, None]
        out = slope[j]
        out *= (rows - xp[j])[:, None]
        out += fp[j]
        nan = np.isnan(out)
        if nan.any():
            r, c = np.nonzero(nan)
            k = j[r]
            alt = slope[k, c] * (rows[r] - xp[k + 1]) + fp[k + 1, c]
            flat = np.isnan(alt) & (fp[k, c] == fp[k + 1, c])
            alt[flat] = fp[k, c][flat]
            out[r, c] = alt
    on_knot = xp[j] == rows
    out[on_knot] = fp[j[on_knot]]
    return out


def coarse_generate(y_s, active, model, sched: NoiseSchedule, cfg: PipelineConfig,
                    rng, reference=None) -> np.ndarray:
    """Run the guided DDIM chain from pure noise down to t = 0.

    y_s holds the observed rows (zeros elsewhere are fine; only active rows
    are read). The optimal-closed-form guidance mode needs a reference
    sinogram to build the weight inputs. Conditional models receive the
    masked observation as their conditioning channel.
    """
    y_s = np.asarray(y_s, dtype=np.float64)
    active = np.asarray(active, bool)
    gcfg = cfg.guidance
    if gcfg.mode == "optimal-closed-form" and reference is None:
        raise InvalidArgumentError("optimal guidance needs a reference")
    if active.shape != y_s.shape[:1]:
        raise ShapeMismatchError("row flag length does not match")
    if cfg.sigma_ddim < 0:
        raise InvalidArgumentError("sigma_t must be >= 0")
    cond = mask_rows(y_s, active) if getattr(model, "conditional", False) else None
    ts = ddim_times(sched.T, cfg.ddim_steps)
    # the loop owns y, x0, prod and the active-row buffers and updates them
    # in place with the operation order of predict_x0, apply_sparse_guidance
    # and ddim_step; it never writes into an array the model returns
    y = rng.standard_normal(y_s.shape)
    x0 = np.empty_like(y)
    prod = np.empty_like(y)
    rows = np.flatnonzero(active)
    ys_rows = y_s[rows]
    row_buf = np.empty_like(ys_rows)
    row_diff = np.empty_like(ys_rows)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        t = int(t)
        eps_hat = model.predict_eps(y, t, cond)
        if cond is not None and cfg.omega != 0.0:
            eps_unc = model.predict_eps(y, t, None)
            eps_hat = cfg_combine(eps_hat, eps_unc, cfg.omega)
        _predict_x0(x0, y, eps_hat, sched.alpha_bar[t])
        if gcfg.mode == "optimal-closed-form":
            lam = optimal_lambda(LambdaInputs.from_vectors(
                (x0 - reference)[active].ravel(), (y_s - reference)[active].ravel()))
        else:
            lam = guidance_weight(t, gcfg, sched.T)
        _guide_rows(x0, ys_rows, rows, _guidance_lambda(lam), row_buf, row_diff)
        if cfg.align_per_step and cfg.alignment:
            x0 = apply_linear_alignment(x0, fit_linear_alignment(x0, y_s, active))
        _ddim_update(y, x0, eps_hat, sched.alpha_bar[int(t_prev)], cfg.sigma_ddim,
                     rng, prod)
    return y


def _stage(name, values, reference, active):
    if reference is None:
        return StageMetrics(name, float("nan"), float("nan"),
                            float("nan"), float("nan"))
    return StageMetrics(
        stage=name,
        mse_masked=mse(reference[active], values[active]),
        mse_full=mse(reference, values),
        psnr=psnr(reference, values),
        ssim=ssim(reference, values),
    )


def report_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("stage,mse_masked,mse_full,psnr,ssim\n")
    for r in rows:
        buf.write(f"{r.stage},{r.mse_masked:.10g},{r.mse_full:.10g},"
                  f"{r.psnr:.10g},{r.ssim:.10g}\n")
    return buf.getvalue()


@dataclass(frozen=True)
class ReconstructionResult:
    image: ImageGrid
    sinogram: Sinogram
    stages: tuple
    alignment: AlignmentParams | None


def stride_reconstruct(y_s: Sinogram, m: SparseMask, grid: ImageGrid,
                       cfg: PipelineConfig, model=None, sched=None,
                       score_low=None, score_high=None,
                       reference: Sinogram | None = None,
                       reference_image: ImageGrid | None = None,
                       prior_var: float = 0.05) -> ReconstructionResult:
    """Full chain from masked sinogram to reconstructed image.

    With model=None an analytic Gaussian surrogate centered on the
    view-interpolated sinogram stands in for a trained network. The same
    centering gives each live band branch that was given no score model a
    Gaussian score of variance prior_var; a branch is live when its band
    flag is set and the corrector takes steps, and an off branch is never
    scored. The band scores are checked by :func:`check_refinement` before
    the chain starts. grid supplies the output raster (values unused).
    """
    if m.n_views != y_s.geometry.n_views:
        raise ShapeMismatchError("mask and sinogram view counts differ")
    if sched is None:
        sched = linear_schedule()
    active = m.active
    raw = np.asarray(y_s.values, dtype=np.float64)
    scale = float(np.max(np.abs(raw[active]))) if cfg.normalize else 1.0
    if scale == 0.0:
        scale = 1.0
    ys_n = raw / scale
    ref_arr = np.asarray(reference.values, dtype=np.float64) if reference is not None else None
    ref_n = ref_arr / scale if ref_arr is not None else None
    interp = interpolate_views(ys_n, active)
    steps = cfg.corrector.n_steps > 0
    live_low, live_high = steps and cfg.low_band, steps and cfg.high_band
    if (live_low and score_low is None) or (live_high and score_high is None):
        prior = swt_decompose(interp, cfg.wavelet)
        if score_low is None:
            score_low = AnalyticGaussianScore(prior.low, prior_var)
        if score_high is None:
            score_high = AnalyticGaussianScore(prior.high, prior_var)
    score_low = score_low if live_low else None
    score_high = score_high if live_high else None
    check_refinement(score_low, score_high, cfg.corrector, sched)
    if model is None:
        model = AnalyticGaussianDenoiser(interp, prior_var, sched)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    stages = []

    y = coarse_generate(ys_n, active, model, sched, cfg, rng, reference=ref_n)
    stages.append(_stage("coarse", y * scale, ref_arr, active))

    align = None
    if cfg.alignment:
        align = fit_linear_alignment(y, ys_n, active)
        y = apply_linear_alignment(y, align)
        stages.append(_stage("aligned", y * scale, ref_arr, active))

    if score_low is not None or score_high is not None:
        bands = refine_bands(swt_decompose(y, cfg.wavelet), score_low, score_high,
                             cfg.corrector, sched)
        y = iswt_reconstruct(bands)
        stages.append(_stage("refined", y * scale, ref_arr, active))

    y_out = y * scale
    if cfg.final_dc == "active":
        y_out = data_consistency(y_out, raw, active)
    stages.append(_stage("final-dc", y_out, ref_arr, active))

    sino_out = Sinogram(y_out, y_s.geometry)
    image = fbp_reconstruct(sino_out, grid, cfg.filter,
                            pre_weight=cfg.pre_weight, weighting=cfg.weighting)
    if reference_image is not None:
        rv = np.asarray(reference_image.values, dtype=np.float64)
        stages.append(StageMetrics("fbp", float("nan"),
                                   mse(rv, image.values),
                                   psnr(rv, image.values),
                                   ssim(rv, image.values)))
    else:
        stages.append(StageMetrics("fbp", float("nan"), float("nan"),
                                   float("nan"), float("nan")))
    return ReconstructionResult(image=image, sinogram=sino_out,
                                stages=tuple(stages), alignment=align)


def sparse_fbp_baseline(y_s: Sinogram, m: SparseMask, grid: ImageGrid,
                        spec: FilterSpec | None = None,
                        pre_weight: bool = True,
                        weighting: str = "literal") -> ImageGrid:
    """Plain filtered backprojection on the kept views only."""
    coarse = extract_active_views(y_s, m)
    return fbp_reconstruct(coarse, grid, spec or FilterSpec(),
                           pre_weight=pre_weight, weighting=weighting)


def _ablation_variants(cfg: PipelineConfig):
    off = GuidanceConfig(mode="fixed", nu=cfg.guidance.nu, fixed_lambda=0.0)
    return [
        ("full", cfg),
        ("no-guidance", replace(cfg, guidance=off)),
        ("no-alignment", replace(cfg, alignment=False)),
        ("no-low-band", replace(cfg, low_band=False)),
        ("no-high-band", replace(cfg, high_band=False)),
    ]


def run_component_ablation(y_s: Sinogram, m: SparseMask, grid: ImageGrid,
                           cfg: PipelineConfig, reference: Sinogram,
                           reference_image: ImageGrid | None = None,
                           **kwargs):
    """Re-run the chain with one component disabled at a time.

    Returns (name, final sinogram MSE vs reference, result) tuples; the
    full configuration is first.
    """
    rows = []
    ref = np.asarray(reference.values, dtype=np.float64)
    for name, variant in _ablation_variants(cfg):
        res = stride_reconstruct(y_s, m, grid, variant, reference=reference,
                                 reference_image=reference_image, **kwargs)
        rows.append((name, mse(ref, np.asarray(res.sinogram.values)), res))
    return rows


def ablation_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("variant,mse_full\n")
    for name, err, _ in rows:
        buf.write(f"{name},{err:.10g}\n")
    return buf.getvalue()


def run_lambda_sweep(y_s: Sinogram, m: SparseMask, grid: ImageGrid,
                     cfg: PipelineConfig, reference: Sinogram,
                     reference_image: ImageGrid | None = None, **kwargs):
    """Fixed guidance weights 0.0 .. 1.0 in steps of 0.1 plus the temporal
    schedule: 12 rows of (label, sinogram MSE, image PSNR, sinogram KL).

    Only the table is returned; the chains compute no per-stage metrics."""
    ref = np.asarray(reference.values, dtype=np.float64)
    ref_img = (np.asarray(reference_image.values, dtype=np.float64)
               if reference_image is not None else None)
    configs = [(f"fixed-{k / 10.0:.1f}",
                GuidanceConfig(mode="fixed", nu=cfg.guidance.nu,
                               fixed_lambda=k / 10.0))
               for k in range(11)]
    configs.append(("temporal", GuidanceConfig(mode="temporal", nu=cfg.guidance.nu)))
    rows = []
    for name, g in configs:
        # fixed and temporal weights never read the reference, so the chain
        # gets none and computes no stage metrics
        res = stride_reconstruct(y_s, m, grid, replace(cfg, guidance=g), **kwargs)
        out = np.asarray(res.sinogram.values)
        rows.append((name, mse(ref, out),
                     psnr(ref_img, res.image.values) if ref_img is not None
                     else float("nan"),
                     kl_divergence(ref, out)))
    return rows


def lambda_sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("guidance,mse_full,psnr,kl\n")
    for name, err, pk, kl in rows:
        buf.write(f"{name},{err:.10g},{pk:.10g},{kl:.10g}\n")
    return buf.getvalue()
