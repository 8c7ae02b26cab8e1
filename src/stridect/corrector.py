"""Distribution alignment and dual-band Langevin refinement.

The aligned coarse sinogram is split into stationary-wavelet bands; each band
runs annealed Langevin updates under its score model, interleaved with a
data-consistency replacement on the rows whose band values are fully
determined by observed views (the trust mask below).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalAbortError, ShapeMismatchError
from .diffusion import NoiseSchedule
from .wavelet import WaveletBands, filter_pair


@dataclass(frozen=True)
class AlignmentParams:
    """Affine map a*y + b fitted on observed rows; ``degenerate`` flags a
    singular fit where only the offset was estimated."""

    a: float
    b: float
    degenerate: bool = False


def fit_linear_alignment(y_gen, y_s, active) -> AlignmentParams:
    """Least squares for a*y_gen + b ~ y_s over active-row entries.

    A constant masked y_gen makes the system singular; then a = 1 and only
    the offset is fitted, with the degenerate flag set.
    """
    active = np.asarray(active, bool)
    if int(active.sum()) < 2:
        raise InvalidArgumentError("alignment needs at least 2 active views")
    g = np.asarray(getattr(y_gen, "values", y_gen), dtype=np.float64)[active].ravel()
    y = np.asarray(getattr(y_s, "values", y_s), dtype=np.float64)[active].ravel()
    if g.shape != y.shape:
        raise ShapeMismatchError("generated and observed shapes differ")
    gm = g.mean()
    ym = y.mean()
    gc = g - gm
    denom = float(gc @ gc)
    if denom <= 1e-20 * g.size * max(1.0, gm * gm):
        return AlignmentParams(a=1.0, b=float(ym - gm), degenerate=True)
    a = float(gc @ (y - ym)) / denom
    return AlignmentParams(a=a, b=float(ym - a * gm), degenerate=False)


def apply_linear_alignment(y, params: AlignmentParams):
    return params.a * np.asarray(getattr(y, "values", y), dtype=np.float64) + params.b


def langevin_step(x, score_model, t: float, eps_t: float, rng):
    """x + eps_t * score + sqrt(2 eps_t) z with z ~ N(0, I)."""
    if eps_t < 0:
        raise InvalidArgumentError("eps_t must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(score_model.score(x, t), dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NumericalAbortError(f"non-finite score at t={t}")
    z = rng.standard_normal(x.shape)
    return x + eps_t * s + np.sqrt(2.0 * eps_t) * z


def data_consistency(x, observed, rows):
    """Replace the flagged rows of x with the observed rows, exactly."""
    x = np.asarray(x)
    observed = np.asarray(observed)
    if x.shape != observed.shape:
        raise ShapeMismatchError("data consistency shapes differ")
    rows = np.asarray(rows, bool)
    if rows.shape[0] != x.shape[0]:
        raise ShapeMismatchError("row flag length does not match")
    return np.where(rows[:, None], observed, x)


def consistency_mask(active, filter_len: int):
    """Shrink the active-row set by the filter half-width.

    A band row is trusted only when no row within filter_len // 2 of it is
    unobserved (band values smear across neighbouring rows). For stride
    masks with r >= 2 this is typically empty; a full mask passes through.
    """
    active = np.asarray(active, bool)
    hw = int(filter_len) // 2
    trusted = active.copy()
    for d in range(1, hw + 1):
        trusted &= np.roll(active, d) & np.roll(active, -d)
    return trusted


@dataclass(frozen=True)
class CorrectorConfig:
    """Annealed Langevin settings. eps_start defaults to 1e-2 * sigma_max^2
    of the schedule's variance-exploding branch."""

    n_steps: int = 600
    eps_start: float | None = None
    eps_end: float = 1e-5
    lambda_low: float = 1.0
    lambda_high: float = 1.0
    t_start: float = 1.0
    t_end: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 0:
            raise InvalidArgumentError("n_steps must be >= 0")
        if self.eps_end <= 0 or (self.eps_start is not None and self.eps_start <= 0):
            raise InvalidArgumentError("eps bounds must be positive")
        if self.lambda_low < 0 or self.lambda_high < 0:
            raise InvalidArgumentError("branch scales must be >= 0")


def eps_schedule(cfg: CorrectorConfig, sched: NoiseSchedule) -> np.ndarray:
    """Geometric step-size decay over n_steps."""
    if cfg.n_steps == 0:
        return np.zeros(0)
    start = cfg.eps_start if cfg.eps_start is not None else 1e-2 * sched.ve_sigma_max**2
    if cfg.n_steps == 1:
        return np.array([start])
    ratio = (cfg.eps_end / start) ** (1.0 / (cfg.n_steps - 1))
    return start * ratio ** np.arange(cfg.n_steps)


def refine_bands(bands: WaveletBands, observed: WaveletBands, score_low, score_high,
                 cfg: CorrectorConfig, trust, sched: NoiseSchedule) -> WaveletBands:
    """Langevin-refine all four bands with interleaved data consistency.

    The low band uses ``score_low``; the three high bands share
    ``score_high`` evaluated on their channel stack. Passing None for a
    score disables that branch entirely (no step, no consistency). Each
    band draws from its own RNG stream derived from (seed, band index), and
    every enabled chain ends with a data-consistency application. A trust
    mask with no True row makes data consistency a no-op, so it is skipped.
    """
    if bands.shape != observed.shape or bands.wavelet != observed.wavelet:
        raise ShapeMismatchError("band sets are not compatible")
    trust = np.asarray(trust, bool)
    if trust.shape != bands.shape[:1]:
        raise ShapeMismatchError("row flag length does not match")
    dc = bool(trust.any())
    eps = eps_schedule(cfg, sched)
    ts = np.linspace(cfg.t_start, cfg.t_end, cfg.n_steps) if cfg.n_steps else np.zeros(0)
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, band]))
            for band in range(4)]
    low = np.array(bands.low, dtype=np.float64)
    highs = [np.array(h, dtype=np.float64) for h in bands.high]
    # one stack buffer for every step: a fresh one each step makes the heap
    # trim and fault its pages back in
    stack = np.empty((3,) + low.shape)
    for k in range(cfg.n_steps):
        if score_low is not None:
            low = langevin_step(low, score_low, ts[k], cfg.lambda_low * eps[k], rngs[0])
            if dc:
                low = data_consistency(low, observed.low, trust)
        if score_high is not None:
            s = np.asarray(score_high.score(np.stack(highs, out=stack), ts[k]), dtype=np.float64)
            if not np.all(np.isfinite(s)):
                raise NumericalAbortError(f"non-finite high-band score at step {k}")
            e = cfg.lambda_high * eps[k]
            for i in range(3):
                z = rngs[i + 1].standard_normal(highs[i].shape)
                highs[i] = highs[i] + e * s[i] + np.sqrt(2.0 * e) * z
                if dc:
                    highs[i] = data_consistency(highs[i], observed.high[i], trust)
    return bands.replace(low=low, high=highs)
