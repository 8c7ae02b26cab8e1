"""Distribution alignment and dual-band Langevin refinement.

The aligned coarse sinogram is split into stationary-wavelet bands and each
band runs annealed Langevin updates under its score model. Under a fixed
Gaussian score every update is linear, so a branch scored by
:class:`AnalyticGaussianScore` takes all of its steps at once in closed form;
other score models step through the chain. Measurements are restored
afterwards, on the sinogram, by :func:`data_consistency`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalAbortError, ShapeMismatchError
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


def _score(model, x, t):
    """model.score(x, t) as float64; a non-finite entry aborts the chain."""
    s = np.asarray(model.score(x, t), dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NumericalAbortError(f"non-finite score at t={t}")
    return s


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
    s = _score(score_model, x, t)
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


def langevin_growth(eps, var: float) -> float:
    """log10 of the largest factor by which Langevin steps of sizes ``eps``
    grow a deviation from the mean under the score of N(mean, var I).

    Each step multiplies the deviation by (1 - eps_k / var), so the factor
    after step k is the product of |1 - eps_j / var| over j <= k. A chain
    whose factor passes the largest float overflows whatever its start.
    """
    if var <= 0:
        raise InvalidArgumentError("var must be positive")
    with np.errstate(divide="ignore"):  # a step of exactly var resets it
        g = np.cumsum(np.log10(np.abs(1.0 - np.asarray(eps) / var)))
    return float(g.max()) if g.size else float("-inf")


def _band_rngs(seed: int, bands) -> list:
    """One generator per band, each on its own (seed, band index) stream."""
    return [np.random.default_rng(np.random.SeedSequence([seed, b])) for b in bands]


def refine_bands(bands: WaveletBands, score_low, score_high,
                 cfg: CorrectorConfig, sched: NoiseSchedule) -> WaveletBands:
    """Langevin-refine the four bands under their score models.

    The chain runs on one copy of ``bands.values``, so the caller's bands
    are never written, and the returned bands hold that copy. The low band
    ``values[0]`` uses ``score_low``; the high bands ``values[1:]`` share
    ``score_high`` evaluated on that (3, rows, cols) view. Passing None for
    a score leaves that branch's bands as they are. Each band draws from its
    own RNG stream derived from (seed, band index).

    A branch whose score is an :class:`AnalyticGaussianScore` takes all
    ``n_steps`` at once in closed form (:func:`_gaussian_steps`): the same
    distribution as the step loop, with one noise draw per band instead of
    one per step. Any other score model runs the step loop.
    """
    x = np.array(bands.values, dtype=np.float64)
    if not cfg.n_steps:
        return WaveletBands(x, bands.wavelet)
    eps = eps_schedule(cfg, sched)
    looped = {}
    for name, part, model, lam in (("low", slice(0, 1), score_low, cfg.lambda_low),
                                   ("high", slice(1, 4), score_high, cfg.lambda_high)):
        if isinstance(model, AnalyticGaussianScore):
            _gaussian_steps(x[part], model, lam * eps,
                            _band_rngs(cfg.seed, range(part.start, part.stop)), name)
        elif model is not None:
            looped[name] = model
    if looped:
        _langevin_loop(x, looped.get("low"), looped.get("high"), cfg, eps)
    return WaveletBands(x, bands.wavelet)


def _gaussian_steps(x, model: AnalyticGaussianScore, e, rngs, branch: str):
    """Apply Langevin steps of sizes ``e`` under the score of N(mean, var I)
    to the bands x (band axis first) in place, all at once.

    Each step maps the deviation d = x - mean to a_k d + sqrt(2 e_k) z_k with
    a_k = 1 - e_k / var, so after the last step d is P d_0 + S z with
    P = prod_k a_k, S^2 = sum_j 2 e_j prod_{i>j} a_i^2 and z ~ N(0, I): the
    step loop's distribution exactly, but not its bytes.

    Operation order, from P = 1.0 and S = 0.0 as Python floats: for each k,
    a = 1.0 - e_k / var, P *= a, S = math.hypot(a * S, math.sqrt(2.0 * e_k)).
    (S is carried rather than S^2 = a^2 S^2 + 2 e_k, which overflows at half
    the exponent the chain itself reaches.) Then x -= mean, x *= P,
    x += mean, and band by band in band order, z = rngs[b].standard_normal
    (band shape), z *= S, x[b] += z. A non-finite result aborts.
    """
    var = model.var
    if var <= 0:
        raise InvalidArgumentError("var must be positive")
    p, s = 1.0, 0.0
    for ek in e.tolist():
        a = 1.0 - ek / var
        p *= a
        s = math.hypot(a * s, math.sqrt(2.0 * ek))
    x -= model.mean
    x *= p
    x += model.mean
    for xb, rng in zip(x, rngs):
        z = rng.standard_normal(xb.shape)
        z *= s
        xb += z
    if not np.all(np.isfinite(x)):
        raise NumericalAbortError(f"non-finite {branch}-band Gaussian refinement "
                                  f"(deviation factor {p:.3g}, noise scale {s:.3g})")


def _langevin_loop(x, score_low, score_high, cfg, eps):
    """Run the Langevin chain step by step, in place, on the low band x[0]
    when ``score_low`` is set and on the high-band stack x[1:] when
    ``score_high`` is set. Each step draws its noise inline, one band at a
    time in band order, from that band's stream."""
    ts = np.linspace(cfg.t_start, cfg.t_end, cfg.n_steps)
    first = 0 if score_low is not None else 1
    stop = 4 if score_high is not None else 1
    rngs = _band_rngs(cfg.seed, range(first, stop))
    z = np.empty((4,) + x.shape[1:])
    buf = np.empty(x.shape)
    for k in range(cfg.n_steps):
        for b, rng in enumerate(rngs, first):
            rng.standard_normal(out=z[b])
        if score_low is not None:
            s = _score(score_low, x[0], ts[k])
            _langevin_update(x[0], s, cfg.lambda_low * eps[k], z[0], buf[0])
        if score_high is not None:
            s = np.asarray(score_high.score(x[1:], ts[k]), dtype=np.float64)
            if not np.all(np.isfinite(s)):
                raise NumericalAbortError(f"non-finite high-band score at step {k}")
            _langevin_update(x[1:], s, cfg.lambda_high * eps[k], z[1:], buf[1:])
