"""Distribution alignment and dual-band Langevin refinement.

The aligned coarse sinogram is split into stationary-wavelet bands and each
band runs annealed Langevin updates under its score model. A score model
that carries the closed form of those steps, as the fixed Gaussian
:class:`~stridect.denoiser.AnalyticGaussianScore` does, takes all of a
branch's steps at once; other score models step through the chain. The low
band and the high-band stack are independent branches; :func:`check_refinement`
rejects up front a closed-form one whose steps must fail. Measurements are
restored afterwards, on the sinogram, by :func:`data_consistency`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgumentError, NumericalAbortError, require_finite, require_seed,
                     require_shape)
from .denoiser import SCORE_T_MIN
from .geometry import row_flags
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
    g = np.asarray(getattr(y_gen, "values", y_gen), dtype=np.float64)
    y = np.asarray(getattr(y_s, "values", y_s), dtype=np.float64)
    require_shape(g.shape, y.shape, "y_gen")
    active = row_flags(active, g)
    if int(active.sum()) < 2:
        raise InvalidArgumentError("alignment needs at least 2 active views")
    g = g[active].ravel()
    y = y[active].ravel()
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
    require_shape(observed.shape, x.shape, "observed")
    return np.where(row_flags(rows, x)[:, None], observed, x)


@dataclass(frozen=True)
class CorrectorConfig:
    """Annealed Langevin settings. eps_start is 1e-2 * sigma_max^2 of the
    variance-exploding noise range (sigma_max = 1). A float setting that is
    nan or infinite, or a negative seed, is rejected."""

    n_steps: int = 600
    eps_start: float = 1e-2
    eps_end: float = 1e-5
    lambda_low: float = 1.0
    lambda_high: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 0:
            raise InvalidArgumentError("n_steps must be >= 0")
        require_finite(self, ("eps_start", "eps_end", "lambda_low", "lambda_high"))
        require_seed(self.seed, "corrector seed")
        if self.eps_end <= 0 or self.eps_start <= 0:
            raise InvalidArgumentError("eps bounds must be positive")
        if self.lambda_low < 0 or self.lambda_high < 0:
            raise InvalidArgumentError("branch scales must be >= 0")


def eps_schedule(cfg: CorrectorConfig) -> np.ndarray:
    """Geometric step-size decay over n_steps."""
    # 0 or 1 steps take the exponent 1, which cannot overflow and leaves
    # the first step at eps_start
    ratio = (cfg.eps_end / cfg.eps_start) ** (1.0 / max(cfg.n_steps - 1, 1))
    return cfg.eps_start * ratio ** np.arange(cfg.n_steps)


def check_refinement(score_low, score_high, cfg: CorrectorConfig) -> None:
    """Reject, before any chain work, a refinement that must fail: each
    branch whose score model carries ``langevin_factors`` has its step
    factors checked by it. None marks a branch that is off; other score
    models are not known until they run."""
    eps = eps_schedule(cfg)
    for model, lam in ((score_low, cfg.lambda_low), (score_high, cfg.lambda_high)):
        if hasattr(model, "langevin_factors"):
            model.langevin_factors(lam * eps)


def _band_rngs(seed: int) -> list:
    """One generator per band, each on its own (seed, 1, band index) stream.
    The coarse stage draws from (seed, 0), so under equal seeds no band
    shares its stream."""
    return [np.random.default_rng(np.random.SeedSequence([seed, 1, b])) for b in range(4)]


def refine_bands(bands: WaveletBands, score_low, score_high,
                 cfg: CorrectorConfig) -> WaveletBands:
    """Langevin-refine the four bands under their score models.

    The chain runs on one copy of ``bands.values``, so the caller's bands
    are never written, and the returned bands hold that copy. The low band
    ``values[0]`` uses ``score_low``; the high bands ``values[1:]`` share
    ``score_high`` evaluated on that (3, rows, cols) view. Passing None for
    a score leaves that branch's bands as they are. Each band draws from its
    own RNG stream derived from (seed, 1, band index), so the two branches are
    independent and run one after the other.

    A branch whose score model carries ``langevin_steps``, as the Gaussian
    score does, hands it all ``n_steps`` at once: the same distribution as
    the step loop, with one noise draw per band instead of one per step.
    Any other score model runs the step loop, annealing t from 1 down to
    SCORE_T_MIN, the range the score nets train on.
    """
    x = np.array(bands.values, dtype=np.float64)
    if not cfg.n_steps:
        return WaveletBands(x, bands.wavelet)
    eps = eps_schedule(cfg)
    ts = np.linspace(1.0, SCORE_T_MIN, cfg.n_steps)
    rngs = _band_rngs(cfg.seed)
    for branch, view, model, lam, streams in (
            ("low", x[0], score_low, cfg.lambda_low, rngs[:1]),
            ("high", x[1:], score_high, cfg.lambda_high, rngs[1:])):
        if hasattr(model, "langevin_steps"):
            model.langevin_steps(view, lam * eps, streams, branch)
        elif model is not None:
            _langevin_loop(view, model, lam * eps, ts, streams, branch)
    return WaveletBands(x, bands.wavelet)


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
