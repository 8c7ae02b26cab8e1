"""Distribution alignment and dual-band Langevin refinement.

The aligned coarse sinogram is split into stationary-wavelet bands and each
band runs annealed Langevin updates under its score model. Under a fixed
Gaussian score every update is linear, so a branch scored by
:class:`AnalyticGaussianScore` takes all of its steps at once in closed form;
other score models step through the chain. The low band and the high-band
stack are independent branches; :func:`check_refinement` rejects up front a
Gaussian-scored one whose steps must fail. Measurements are restored
afterwards, on the sinogram, by :func:`data_consistency`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgumentError, NumericalAbortError, ShapeMismatchError,
                     require_finite)
from .denoiser import AnalyticGaussianScore
from .diffusion import NoiseSchedule
from .wavelet import WaveletBands


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


def _langevin_update(x, s, e, z, buf):
    """x <- x + e * s + sqrt(2 e) * z in place, summed in that order.

    Overwrites x, z and buf; never s, which a score model may cache.
    """
    np.multiply(s, e, out=buf)
    x += buf
    z *= np.sqrt(2.0 * e)
    x += z


def langevin_step(x, score_model, t: float, eps_t: float, rng):
    """x + eps_t * score + sqrt(2 eps_t) z with z ~ N(0, I)."""
    if eps_t < 0:
        raise InvalidArgumentError("eps_t must be >= 0")
    x = np.array(x, dtype=np.float64)
    s = np.asarray(score_model.score(x, t), dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NumericalAbortError(f"non-finite score at t={t}")
    _langevin_update(x, s, eps_t, rng.standard_normal(x.shape), np.empty_like(x))
    return x


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


@dataclass(frozen=True)
class CorrectorConfig:
    """Annealed Langevin settings. eps_start defaults to 1e-2 * sigma_max^2
    of the schedule's variance-exploding branch. A float setting that is nan
    or infinite is rejected."""

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
        require_finite(self, ("eps_start", "eps_end", "lambda_low", "lambda_high",
                              "t_start", "t_end"))
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


def gaussian_factors(e, var: float) -> tuple[float, float]:
    """Deviation factor P and noise scale S of Langevin steps of sizes ``e``
    under the score of N(mean, var I).

    Each step maps the deviation d = x - mean to a_k d + sqrt(2 e_k) z_k with
    a_k = 1 - e_k / var, so after the last step d is P d_0 + S z with
    P = prod_k a_k, S^2 = sum_j 2 e_j prod_{i>j} a_i^2 and z ~ N(0, I).

    Operation order, from P = 1.0 and S = 0.0 as Python floats: for each k,
    a = 1.0 - e_k / var, P *= a, S = math.hypot(a * S, math.sqrt(2.0 * e_k)).
    (S is carried rather than S^2 = a^2 S^2 + 2 e_k, which overflows at half
    the exponent the chain itself reaches.) A var <= 0, a |P| > 1 or an S
    that is not finite is rejected: such a chain grows the deviation from
    the mean that it should shrink, or overflows, whatever its start.
    """
    if var <= 0:
        raise InvalidArgumentError(f"Gaussian band score var={var:g} must be positive "
                                   "(prior_var for the default band scores)")
    p, s = 1.0, 0.0
    for ek in e.tolist():
        a = 1.0 - ek / var
        p *= a
        s = math.hypot(a * s, math.sqrt(2.0 * ek))
    if not (abs(p) <= 1.0 and math.isfinite(s)):
        raise InvalidArgumentError(
            f"Langevin steps from eps={e[0]:.3g} scale deviations under var={var:g} "
            f"by {p:.3g} (noise scale {s:.3g}), not a finite shrink; lower eps_start "
            "or raise the var (prior_var for the default band scores)")
    return p, s


def check_refinement(score_low, score_high, cfg: CorrectorConfig,
                     sched: NoiseSchedule) -> None:
    """Reject, before any chain work, a refinement that must fail: each
    branch scored by an :class:`AnalyticGaussianScore` has its step factors
    checked by :func:`gaussian_factors`. None marks a branch that is off;
    other score models are not known until they run."""
    eps = eps_schedule(cfg, sched)
    for model, lam in ((score_low, cfg.lambda_low), (score_high, cfg.lambda_high)):
        if isinstance(model, AnalyticGaussianScore):
            gaussian_factors(lam * eps, model.var)


def _band_rngs(seed: int) -> list:
    """One generator per band, each on its own (seed, 1, band index) stream.
    The coarse stage draws from (seed, 0), so under equal seeds no band
    shares its stream."""
    return [np.random.default_rng(np.random.SeedSequence([seed, 1, b])) for b in range(4)]


def refine_bands(bands: WaveletBands, score_low, score_high,
                 cfg: CorrectorConfig, sched: NoiseSchedule) -> WaveletBands:
    """Langevin-refine the four bands under their score models.

    The chain runs on one copy of ``bands.values``, so the caller's bands
    are never written, and the returned bands hold that copy. The low band
    ``values[0]`` uses ``score_low``; the high bands ``values[1:]`` share
    ``score_high`` evaluated on that (3, rows, cols) view. Passing None for
    a score leaves that branch's bands as they are. Each band draws from its
    own RNG stream derived from (seed, 1, band index), so the two branches are
    independent and run one after the other.

    A branch whose score is an :class:`AnalyticGaussianScore` takes all
    ``n_steps`` at once in closed form (:func:`_gaussian_steps`): the same
    distribution as the step loop, with one noise draw per band instead of
    one per step. Any other score model runs the step loop.
    """
    x = np.array(bands.values, dtype=np.float64)
    if not cfg.n_steps:
        return WaveletBands(x, bands.wavelet)
    eps = eps_schedule(cfg, sched)
    ts = np.linspace(cfg.t_start, cfg.t_end, cfg.n_steps)
    rngs = _band_rngs(cfg.seed)
    for branch, view, model, lam, streams in (
            ("low", x[0], score_low, cfg.lambda_low, rngs[:1]),
            ("high", x[1:], score_high, cfg.lambda_high, rngs[1:])):
        if isinstance(model, AnalyticGaussianScore):
            _gaussian_steps(view, model, lam * eps, streams, branch)
        elif model is not None:
            _langevin_loop(view, model, lam * eps, ts, streams, branch)
    return WaveletBands(x, bands.wavelet)


def _gaussian_steps(x, model: AnalyticGaussianScore, e, rngs, branch: str):
    """Apply Langevin steps of sizes ``e`` under the score of N(mean, var I)
    to the band or band stack x in place, all at once.

    With P and S from :func:`gaussian_factors`, the deviation from the mean
    becomes P d_0 + S z: the step loop's distribution exactly, but not its
    bytes. Operation order: x -= mean, x *= P, x += mean, and band by band
    in band order, z = rngs[b].standard_normal(band shape), z *= S,
    x[b] += z. A non-finite result aborts.
    """
    p, s = gaussian_factors(e, model.var)
    x -= model.mean
    x *= p
    x += model.mean
    for xb, rng in zip(x.reshape((-1,) + x.shape[-2:]), rngs):  # band axis first
        z = rng.standard_normal(xb.shape)
        z *= s
        xb += z
    if not np.all(np.isfinite(x)):
        raise NumericalAbortError(f"non-finite {branch}-band Gaussian refinement "
                                  f"(deviation factor {p:.3g}, noise scale {s:.3g})")


def _langevin_loop(x, model, e, ts, rngs, branch: str):
    """Run the Langevin chain on the band or band stack x in place, one step
    of size e[k] at time ts[k] after another. Each step draws its noise
    inline, one band at a time in band order, from that band's stream."""
    z = np.empty(x.shape)
    buf = np.empty(x.shape)
    for k, (ek, t) in enumerate(zip(e, ts)):
        for zb, rng in zip(z.reshape((-1,) + z.shape[-2:]), rngs):
            rng.standard_normal(out=zb)
        s = np.asarray(model.score(x, t), dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise NumericalAbortError(f"non-finite {branch}-band score at step {k}")
        _langevin_update(x, s, ek, z, buf)
