"""Distribution alignment and dual-band Langevin refinement.

The aligned coarse sinogram is split into stationary-wavelet bands and each
band runs annealed Langevin updates under its score model. Measurements are
restored afterwards, on the sinogram, by :func:`data_consistency`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalAbortError, ShapeMismatchError
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


def _cpu_cap() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def refine_bands(bands: WaveletBands, score_low, score_high,
                 cfg: CorrectorConfig, sched: NoiseSchedule) -> WaveletBands:
    """Langevin-refine the four bands under their score models.

    The chain runs on one copy of ``bands.values``, so the caller's bands
    are never written, and the returned bands hold that copy. The low band
    ``values[0]`` uses ``score_low``; the high bands ``values[1:]`` share
    ``score_high`` evaluated on that (3, rows, cols) view. Passing None for
    a score leaves that branch's bands as they are. Each band draws from its
    own RNG stream derived from (seed, band index).

    The noise of step k + 1 is drawn on worker threads while step k is
    applied, and the calling thread draws the bands no worker has taken:
    up to one drawing thread per band and per CPU. Each band's stream is
    drawn by one thread at a time, in step order, so the result does not
    depend on the thread count.
    """
    x = np.array(bands.values, dtype=np.float64)
    first = 0 if score_low is not None else 1
    stop = 4 if score_high is not None else 1
    if cfg.n_steps and first < stop:
        _refine(x[first:stop], score_low, score_high, cfg, sched,
                [np.random.default_rng(np.random.SeedSequence([cfg.seed, band]))
                 for band in range(first, stop)])
    return WaveletBands(x, bands.wavelet)


def _refine(x, score_low, score_high, cfg, sched, rngs):
    """Run the Langevin chain in place on the live bands x, which start with
    the low band when ``score_low`` is set and end with the high-band stack
    when ``score_high`` is set."""
    eps = eps_schedule(cfg, sched)
    ts = np.linspace(cfg.t_start, cfg.t_end, cfg.n_steps)
    high = slice(0 if score_low is None else 1, len(x))
    # two noise slots: one being applied while the next step's is drawn
    noise = np.empty((2,) + x.shape)
    buf = np.empty(x.shape)

    def claim(slot, pop):
        """Draw the bands ``pop`` hands out into a noise slot until none is left."""
        while True:
            try:
                b = pop()
            except IndexError:
                return
            rngs[b].standard_normal(out=noise[slot, b])

    # the calling thread draws too, so it is one of the min(bands, CPUs) drawers
    n_workers = min(len(x), _cpu_cap()) - 1
    if n_workers:
        from concurrent.futures import ThreadPoolExecutor  # kept off the import path
        pool = ThreadPoolExecutor(n_workers)
    else:
        pool = None
    with pool or nullcontext():
        todo, futures = deque(range(len(x))), []
        for k in range(cfg.n_steps):
            slot = k % 2
            # workers take this step's bands from the front, this thread from
            # the back; it polls rather than blocks, because a blocked thread
            # lets its CPU idle, and an idle virtual CPU can take a
            # millisecond to run again on a busy host
            claim(slot, todo.pop)
            while not all(f.done() for f in futures):
                time.sleep(0)
            for f in futures:
                f.result()
            if k + 1 < cfg.n_steps:
                todo = deque(range(len(x)))
                if pool is not None:
                    futures = [pool.submit(claim, 1 - slot, todo.popleft)
                               for _ in range(n_workers)]
            z = noise[slot]
            if score_low is not None:
                s = _score(score_low, x[0], ts[k])
                _langevin_update(x[0], s, cfg.lambda_low * eps[k], z[0], buf[0])
            if score_high is not None:
                s = np.asarray(score_high.score(x[high], ts[k]), dtype=np.float64)
                if not np.all(np.isfinite(s)):
                    raise NumericalAbortError(f"non-finite high-band score at step {k}")
                _langevin_update(x[high], s, cfg.lambda_high * eps[k], z[high], buf[high])
