"""End-to-end sparse-view reconstruction.

Stages: mask-conditioned coarse generation (DDIM with sparse guidance),
linear distribution alignment on observed rows, dual-band Langevin
refinement in the stationary wavelet domain, a final data-consistency
replacement, and fan-beam filtered backprojection. Each stage snapshot is
scored so component contributions can be reported and ablated.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .corrector import (AlignmentParams, CorrectorConfig, apply_linear_alignment,
                        check_refinement, data_consistency, fit_linear_alignment,
                        refine_bands)
from .denoiser import AnalyticGaussianDenoiser, AnalyticGaussianScore
from .diffusion import (GuidanceConfig, NoiseSchedule, _ddim_update, _guide_rows,
                        _predict_x0, cfg_combine, guidance_weight, linear_schedule)
# the public step functions stay attributes of this module, where call
# tracers look them up, though coarse_generate runs their in-place forms
from .diffusion import apply_sparse_guidance, ddim_step, predict_x0  # noqa: F401
from .errors import (InvalidArgumentError, ShapeMismatchError, require_finite, require_seed,
                     require_shape)
from .evalkit import SSIM_WINDOW, check_ssim_size, kl_divergence, mse, psnr, ssim
from .fbp import FilterSpec, backprojection_plan, extract_active_views, fbp_reconstruct
from .fileio import to_csv
from .geometry import ImageGrid, SparseMask, Sinogram, mask_rows, row_flags
from .wavelet import filter_pair, iswt_reconstruct, swt_decompose

# pixels per row tile of a pixelwise model's coarse DDIM: a step's six
# tile-sized arrays (256 KB each) then fit the 2 MB per-core L2 of the 2-CPU
# x86-64 Xeon it was sized on, instead of streaming from L3 on every pass.
# Tune it no further without a measured pair from a second machine.
_TILE = 1 << 15


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full reconstruction chain.

    final_dc selects whether the observed views are overwritten with the
    measured rows after refinement: "active" or "off". prior_var is the
    variance of the analytic Gaussian surrogate and of the default band
    scores, finite and > 0 on every route; filter holds every FBP setting.
    An unknown final_dc or wavelet, align_per_step without alignment, a
    negative sigma_ddim, a sigma_ddim or omega that is nan or infinite, a
    bad prior_var, or a negative seed, is rejected here, before any chain
    work.
    """

    ddim_steps: int = 100
    sigma_ddim: float = 0.0
    omega: float = 0.0
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    corrector: CorrectorConfig = field(default_factory=CorrectorConfig)
    alignment: bool = True
    align_per_step: bool = False
    wavelet: str = "haar"
    final_dc: str = "active"
    normalize: bool = True
    filter: FilterSpec = field(default_factory=FilterSpec)
    prior_var: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.ddim_steps < 1:
            raise InvalidArgumentError("ddim_steps must be >= 1")
        require_finite(self, ("sigma_ddim", "omega"))
        require_seed(self.seed)
        if not 0 < self.prior_var < np.inf:
            raise InvalidArgumentError(f"prior_var must be finite and > 0, got {self.prior_var}")
        if self.sigma_ddim < 0:
            raise InvalidArgumentError("sigma_ddim must be >= 0")
        if self.final_dc not in ("active", "off"):
            raise InvalidArgumentError("final_dc must be active or off")
        if self.align_per_step and not self.alignment:
            raise InvalidArgumentError("align_per_step needs alignment")
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
    return np.rint(np.linspace(T, 0, steps + 1)).astype(int)


def interpolate_views(values, active):
    """Fill unobserved rows of the 2-D values (views along axis 0, one flag
    in ``active`` per row) by periodic linear interpolation along views:
    column j is np.interp(rows, rows[active], values[active, j], period=n)
    for n rows, bytes included."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatchError(f"values of shape {values.shape} are not 2-D")
    active = row_flags(active, values)
    if not active.any():
        raise InvalidArgumentError("no active views to interpolate from")
    n = values.shape[0]
    rows = np.arange(n, dtype=np.float64)
    # the knots padded by one period on each side, as period=n pads them;
    # every row lies strictly inside the padded knots
    xp = rows[active]
    xp = np.concatenate((xp[-1:] - n, xp, xp[:1] + n))
    fp = values[active]
    fp = np.concatenate((fp[-1:], fp, fp[:1]))
    # np.interp's own rule, as in fbp._interp_rows, for every column at
    # once: slope[j] (x - xp[j]) + fp[j], and fp[j] itself on a knot. A
    # column loop of np.interp took 1.45-1.49 ms at 180 x 256 against
    # 0.35-0.53 ms (best of 30, two runs, on a 2-CPU x86-64 Xeon)
    j = np.searchsorted(xp, rows, side="right") - 1
    dx = rows - xp[j]
    on_knot = dx == 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # np.interp warns on nothing
        slope = np.diff(fp, axis=0) / np.diff(xp)[:, None]
        out = slope[j]
        out *= dx[:, None]
        out += fp[j]
        out[on_knot] = fp[j[on_knot]]
        # a nan off the knots is retried from the right knot, then, between
        # equal knot values, is that value
        retry = np.isnan(out)
        retry[on_knot] = False
        if retry.any():
            r, col = np.nonzero(retry)
            left, right = fp[j[r], col], fp[j[r] + 1, col]
            alt = slope[j[r], col] * (rows[r] - xp[j[r] + 1]) + right
            alt = np.where(np.isnan(alt) & (left == right), left, alt)
            out[r, col] = alt
    return out


def coarse_generate(y_T, y_s, active, model, sched: NoiseSchedule, cfg: PipelineConfig,
                    rng) -> np.ndarray:
    """Run the guided DDIM chain from the start y_T down to t = 0.

    y_T has y_s's shape and is not written. y_s holds the observed rows
    (zeros elsewhere are fine; only active rows are read). rng draws the
    per-step noise when sigma_ddim > 0, and may be None otherwise.
    Conditional models receive the masked observation as their conditioning
    channel; a nonzero omega needs such a model. A model that carries a
    ``sched`` must share the sampler's beta.
    """
    y_s = np.asarray(y_s, dtype=np.float64)
    active = row_flags(active, y_s)
    y = np.array(y_T, dtype=np.float64)
    require_shape(y.shape, y_s.shape, "y_T")
    if cfg.sigma_ddim > 0.0 and rng is None:
        raise InvalidArgumentError("sigma_ddim > 0 needs an rng")
    conditional = getattr(model, "conditional", False)
    if cfg.omega != 0.0 and not conditional:
        raise InvalidArgumentError("omega needs a conditional model; set omega = 0")
    own = getattr(model, "sched", None)
    if own is not None and not np.array_equal(own.beta, sched.beta):
        raise InvalidArgumentError(f"model schedule (T={own.T}) differs from the "
                                   f"sampler's (T={sched.T})")
    cond = mask_rows(y_s, active) if conditional else None
    ts = ddim_times(sched.T, cfg.ddim_steps)
    # the loop owns y, x0, prod and row_diff and updates them in place with
    # the operation order of predict_x0, apply_sparse_guidance and
    # ddim_step; it never writes into an array the model returns.
    x0 = np.empty_like(y)
    prod = np.empty_like(y)
    # with every row observed, guidance blends the whole array in place
    rows = slice(None) if active.all() else np.flatnonzero(active)
    ys_rows = y_s[rows]
    row_diff = np.empty_like(ys_rows)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        t = int(t)
        eps_hat = model.predict_eps(y, t, cond)
        if cond is not None and cfg.omega != 0.0:
            eps_unc = model.predict_eps(y, t, None)
            eps_hat = cfg_combine(eps_hat, eps_unc, cfg.omega)
        _predict_x0(x0, y, eps_hat, sched.alpha_bar[t])
        lam = guidance_weight(t, cfg.guidance, sched.T)
        _guide_rows(x0, ys_rows, rows, lam, row_diff)
        if cfg.align_per_step:
            x0 = apply_linear_alignment(x0, fit_linear_alignment(x0, y_s, active))
        _ddim_update(y, x0, eps_hat, sched.alpha_bar[int(t_prev)], cfg.sigma_ddim,
                     rng, prod)
        # freed before the next prediction, whose array can then take its place
        eps_hat = eps_unc = None
    return y


def _stage(name, values, reference, active=None):
    """Score one stage's output; every field is nan without a reference,
    and mse_masked is nan without observed rows (active=None)."""
    nan = float("nan")
    if reference is None:
        return StageMetrics(name, nan, nan, nan, nan)
    return StageMetrics(
        stage=name,
        mse_masked=nan if active is None else mse(reference[active], values[active]),
        mse_full=mse(reference, values),
        psnr=psnr(reference, values),
        ssim=ssim(reference, values),
    )


def report_to_csv(rows) -> str:
    return to_csv([f.name for f in fields(StageMetrics)], map(astuple, rows))


@dataclass(frozen=True)
class ReconstructionResult:
    image: ImageGrid
    sinogram: Sinogram
    stages: tuple
    alignment: AlignmentParams | None


def _check_references(y_s: Sinogram, grid: ImageGrid, reference, reference_image):
    """Reject a reference the chain's output cannot be scored against."""
    if reference is not None:
        require_shape(reference.values.shape, y_s.values.shape, "reference sinogram")
    if reference_image is not None:
        require_shape(reference_image.values.shape, (grid.ny, grid.nx), "reference image")


class _ChainInputs(NamedTuple):
    """What every chain on one measurement shares, made once by
    :func:`_set_up`."""

    raw: np.ndarray  # the measured sinogram's values as float64
    active: np.ndarray  # one flag per view
    scale: float  # ys_n = raw / scale
    ys_n: np.ndarray
    model: object
    sched: NoiseSchedule
    score_low: object  # None for a branch that is off
    score_high: object


def _set_up(y_s: Sinogram, m: SparseMask, cfg: PipelineConfig, model=None, sched=None,
            score_low=None, score_high=None) -> _ChainInputs:
    """The chain's checks, normalisation, view interpolation, surrogate and
    live band scores, which do not depend on the guidance setting."""
    active = row_flags(m.active, y_s.values)
    if cfg.alignment and m.n_active < 2:
        raise InvalidArgumentError("alignment needs at least 2 active views")
    if sched is None:
        sched = linear_schedule()
    raw = np.asarray(y_s.values, dtype=np.float64)
    scale = float(np.max(np.abs(raw[active]))) if cfg.normalize else 1.0
    if scale == 0.0:
        scale = 1.0
    ys_n = raw / scale
    interp = interpolate_views(ys_n, active)
    cc = cfg.corrector
    live_low = cc.n_steps > 0 and cc.lambda_low > 0
    live_high = cc.n_steps > 0 and cc.lambda_high > 0
    if (live_low and score_low is None) or (live_high and score_high is None):
        prior = swt_decompose(interp, cfg.wavelet)
        if score_low is None:
            score_low = AnalyticGaussianScore(prior.low, cfg.prior_var)
        if score_high is None:
            score_high = AnalyticGaussianScore(prior.high, cfg.prior_var)
    score_low = score_low if live_low else None
    score_high = score_high if live_high else None
    check_refinement(score_low, score_high, cc)
    if model is None:
        model = AnalyticGaussianDenoiser(interp, cfg.prior_var, sched)
    return _ChainInputs(raw, active, scale, ys_n, model, sched, score_low, score_high)


def _finish(c: _ChainInputs, y, cfg: PipelineConfig, geometry, grid: ImageGrid,
            ref_arr, reference_image, plan=None) -> ReconstructionResult:
    """Alignment, band refinement, final data consistency and FBP (through
    ``plan`` when given) after the coarse output y, which is not written;
    every stage is scored against the references (nan without them)."""
    active, scale = c.active, c.scale

    def snapshot(name, y):
        # scaled back to the measurement only when a reference scores it
        return _stage(name, None if ref_arr is None else y * scale, ref_arr, active)

    stages = [snapshot("coarse", y)]

    align = None
    if cfg.alignment:
        align = fit_linear_alignment(y, c.ys_n, active)
        y = apply_linear_alignment(y, align)
        stages.append(snapshot("aligned", y))

    cc = cfg.corrector  # a branch the set-up scores may be off in this chain
    low = c.score_low if cc.lambda_low > 0 else None
    high = c.score_high if cc.lambda_high > 0 else None
    if low is not None or high is not None:
        bands = refine_bands(swt_decompose(y, cfg.wavelet), low, high, cc)
        y = iswt_reconstruct(bands)
        stages.append(snapshot("refined", y))

    y_out = y * scale
    if cfg.final_dc == "active":
        y_out = data_consistency(y_out, c.raw, active)
    stages.append(_stage("final-dc", y_out, ref_arr, active))

    sino_out = Sinogram(y_out, geometry)
    image = fbp_reconstruct(sino_out, grid, cfg.filter, plan=plan)
    stages.append(_stage("fbp", image.values,
                         None if reference_image is None else reference_image.values))
    return ReconstructionResult(image=image, sinogram=sino_out,
                                stages=tuple(stages), alignment=align)


def _row_tiles(n_rows: int, n_cols: int) -> list:
    """Row slices covering n_rows rows of n_cols in at most b =
    ceil(n_rows n_cols / _TILE) tiles, each ceil(n_rows / b) rows high and
    the last one possibly shorter."""
    blocks = -(-n_rows * n_cols // _TILE)
    height = -(-n_rows // blocks)
    return [slice(i, i + height) for i in range(0, n_rows, height)]


def _chains(y_s: Sinogram, m: SparseMask, grid: ImageGrid, cfg: PipelineConfig, variants,
            reference: Sinogram | None = None, reference_image: ImageGrid | None = None,
            model=None, **kwargs):
    """Yield one :class:`ReconstructionResult` per config of ``variants``, in
    order, each equal to its own chain's. A variant may change the guidance
    and the band weights, and turn alignment off; the seed, sigma_ddim,
    ddim_steps, omega, normalize, wavelet, prior_var and filter are cfg's.

    References are checked first; the set-up runs once, under cfg. DDIM runs
    from y_T, the first draw of SeedSequence([cfg.seed, 0]), one
    ``coarse_generate`` per block of rows. A ``pixelwise`` model (the
    set-up's surrogate is one) with sigma_ddim = 0 and no per-step alignment
    acts pixel by pixel, and guidance writes only observed rows, so its
    blocks are :func:`_row_tiles` under the model's ``rows``: every row in the
    first chain, the observed rows alone, into the first's output, in later
    ones. A first chain of one tile, and every chain in any other setting,
    runs every row in one call under the model itself. More than one chain
    share one :func:`~stridect.fbp.backprojection_plan`."""
    _check_references(y_s, grid, reference, reference_image)
    if reference is not None:
        check_ssim_size(y_s.values.shape, SSIM_WINDOW)
    if reference_image is not None:
        check_ssim_size((grid.ny, grid.nx), SSIM_WINDOW)
    c = _set_up(y_s, m, cfg, model, **kwargs)
    ref_arr = None if reference is None else np.asarray(reference.values, dtype=np.float64)
    plan = backprojection_plan(y_s.geometry, grid, cfg.filter) if len(variants) > 1 else None
    pixelwise = (getattr(c.model, "pixelwise", False) and cfg.sigma_ddim == 0.0
                 and not cfg.align_per_step)
    shared = plan is not None and pixelwise
    idx = np.arange(len(c.active))  # the flags of rows r are np.isin(idx, r)
    for k, v in enumerate(variants):
        if k == 0 or not shared:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
            y_T = rng.standard_normal(c.ys_n.shape)
            y = np.empty(y_T.shape)
            tiles = _row_tiles(*y_T.shape) if pixelwise else [slice(None)]
            # made as its tile runs, each tile's model is held alone
            blocks = ([(tiles[0], y_T, c.model)] if len(tiles) == 1
                      else ((b, y_T[b], c.model.rows(np.isin(idx, idx[b]))) for b in tiles))
        else:  # _finish does not write y, so its unobserved rows are the first's
            blocks = later
        for b, y_b, block_model in blocks:
            y[b] = coarse_generate(y_b, c.ys_n[b], c.active[b], block_model, c.sched, v, rng)
        if k == 0 and shared:  # the later chains' blocks, their models made once
            rows = np.flatnonzero(c.active)
            later = [(rows[b], y_T[rows[b]], c.model.rows(np.isin(idx, rows[b])))
                     for b in _row_tiles(len(rows), c.ys_n.shape[1])]
        # of y_T and the blocks, only the later chains' are held through the finish
        y_T = blocks = y_b = block_model = None
        yield _finish(c, y, v, y_s.geometry, grid, ref_arr, reference_image, plan)


def stride_reconstruct(y_s: Sinogram, m: SparseMask, grid: ImageGrid,
                       cfg: PipelineConfig, model=None, sched=None,
                       score_low=None, score_high=None,
                       reference: Sinogram | None = None,
                       reference_image: ImageGrid | None = None) -> ReconstructionResult:
    """Full chain from masked sinogram to reconstructed image.

    With model=None an analytic Gaussian surrogate centered on the
    view-interpolated sinogram stands in for a trained network. The same
    centering gives each live band branch that was given no score model a
    Gaussian score of variance cfg.prior_var; a branch is live when the
    corrector takes steps and its lambda_low or lambda_high is above 0, and
    an off branch is never scored. The references' shapes are checked
    against y_s and grid and against the SSIM window that scores each stage,
    then, with alignment on, that at least 2 views are active, and the band
    scores by :func:`check_refinement`, all before the chain starts.
    grid supplies the output raster (values unused).
    """
    # exhausted, not next(): a suspended driver holds its chain's arrays until
    # dropped, which raised recon-desk's peak RSS by 0.02-0.14 MB
    (res,) = _chains(y_s, m, grid, cfg, [cfg], reference, reference_image, model,
                     sched=sched, score_low=score_low, score_high=score_high)
    return res


def sparse_fbp_baseline(y_s: Sinogram, m: SparseMask, grid: ImageGrid,
                        spec: FilterSpec = FilterSpec()) -> ImageGrid:
    """Plain filtered backprojection on the kept views only."""
    return fbp_reconstruct(extract_active_views(y_s, m), grid, spec)


def _ablation_variants(cfg: PipelineConfig):
    off = GuidanceConfig(mode="fixed", nu=0.0)
    return [
        ("full", cfg),
        ("no-guidance", replace(cfg, guidance=off)),
        ("no-alignment", replace(cfg, alignment=False, align_per_step=False)),
        ("no-low-band", replace(cfg, corrector=replace(cfg.corrector, lambda_low=0.0))),
        ("no-high-band", replace(cfg, corrector=replace(cfg.corrector, lambda_high=0.0))),
    ]


def run_component_ablation(y_s: Sinogram, m: SparseMask, grid: ImageGrid,
                           cfg: PipelineConfig, reference: Sinogram,
                           reference_image: ImageGrid | None = None,
                           **kwargs):
    """The chain with one component disabled at a time, sharing work as
    :func:`_chains` does: (name, final sinogram MSE vs reference, result)
    tuples, the full configuration first."""
    ref = np.asarray(reference.values, dtype=np.float64)
    names, variants = zip(*_ablation_variants(cfg))
    return [(name, mse(ref, np.asarray(res.sinogram.values)), res)
            for res, name in zip(_chains(y_s, m, grid, cfg, variants, reference,
                                         reference_image, **kwargs), names)]


def ablation_to_csv(rows) -> str:
    return to_csv(("variant", "mse_full"), (row[:2] for row in rows))


def run_lambda_sweep(y_s: Sinogram, m: SparseMask, grid: ImageGrid,
                     cfg: PipelineConfig, reference: Sinogram,
                     reference_image: ImageGrid | None = None, **kwargs):
    """Fixed guidance weights 0.0 .. 1.0 in steps of 0.1 plus the temporal
    schedule: 12 rows of (label, sinogram MSE, image PSNR, sinogram KL),
    each equal to its own ``stride_reconstruct``'s.

    The 12 chains share work as :func:`_chains` does. Only the table is
    returned; the chains compute no per-stage metrics."""
    _check_references(y_s, grid, reference, reference_image)
    ref = np.asarray(reference.values, dtype=np.float64)
    ref_img = None if reference_image is None else reference_image.values
    guides = {f"fixed-{k / 10.0:.1f}": GuidanceConfig(mode="fixed", nu=k / 10.0)
              for k in range(11)}
    guides["temporal"] = GuidanceConfig(mode="temporal", nu=cfg.guidance.nu)
    variants = [replace(cfg, guidance=g) for g in guides.values()]
    table = []
    for res, name in zip(_chains(y_s, m, grid, cfg, variants, **kwargs), guides):
        out = np.asarray(res.sinogram.values)
        pk = np.nan if ref_img is None else psnr(ref_img, res.image.values)
        table.append((name, mse(ref, out), pk, kl_divergence(ref, out)))
    return table


def lambda_sweep_to_csv(rows) -> str:
    return to_csv(("guidance", "mse_full", "psnr", "kl"), rows)
