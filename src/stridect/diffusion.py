"""Noise schedules, diffusion steps, sparse-view guidance and the optimal
correction weight.

Conventions: discrete timesteps t = 0..T with index 0 meaning "clean"
(beta[0] = 0, alpha_bar[0] = 1). The forward kernel is
y_t = sqrt(alpha_bar_t) y_0 + sqrt(1 - alpha_bar_t) eps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GuidanceClampWarning, InvalidArgumentError, require_shape
from .geometry import row_flags

_GUIDANCE_MODES = ("temporal", "fixed")


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Variance-preserving noise ladder.

    Only beta is given. The horizon T = beta.size - 1 and the cumulative
    signal level alpha_bar = cumprod(1 - beta) are derived from it.
    """

    beta: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = np.array(self.beta, dtype=np.float64)
        if b.ndim != 1 or b.size == 0 or b[0] != 0.0:
            raise InvalidArgumentError("beta must have length T+1 with beta[0] = 0")
        core = b[1:]
        if np.any(core <= 0) or np.any(core >= 1) or np.any(np.diff(core) < 0):
            raise InvalidArgumentError("beta_t must be increasing within (0, 1)")
        ab = np.cumprod(1.0 - b)
        if np.any(np.diff(ab) >= 0) or np.any(ab <= 0):
            raise InvalidArgumentError("alpha_bar must strictly decrease and stay positive")
        for name, arr in (("beta", b), ("alpha_bar", ab)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        """Number of noising steps; t runs over 0..T."""
        return self.beta.size - 1

    def _check_t(self, t):
        if not (0 <= t <= self.T):
            raise InvalidArgumentError(f"t={t} outside [0, {self.T}]")


def linear_schedule(T: int = 1000) -> NoiseSchedule:
    """beta_t ramped linearly from 1e-4 at t = 1 to 2e-2 at t = T (the DDPM
    schedule), with beta_0 = 0."""
    beta = np.zeros(T + 1)
    beta[1:] = np.linspace(1e-4, 2e-2, T)
    return NoiseSchedule(beta)


def forward_noising(y0, t: int, sched: NoiseSchedule, rng) -> tuple:
    """Draw eps ~ N(0, I) and return (y_t, eps). t = 0 returns y0 exactly."""
    sched._check_t(t)
    y0 = np.asarray(y0, dtype=np.float64)
    eps = rng.standard_normal(y0.shape)
    ab = sched.alpha_bar[t]
    y_t = np.sqrt(ab) * y0 + np.sqrt(1.0 - ab) * eps
    return y_t, eps


def _predict_x0(out, y_t, eps_hat, ab):
    """out <- (y_t - sqrt(1 - ab) eps_hat) / sqrt(ab) in that order.

    eps_hat may share memory with y_t but not with out; it is never written.
    """
    np.multiply(eps_hat, np.sqrt(1.0 - ab), out=out)
    np.subtract(y_t, out, out=out)
    out /= np.sqrt(ab)
    return out


def predict_x0(y_t, eps_hat, t: int, sched: NoiseSchedule):
    """Invert the forward kernel: y0_hat = (y_t - sqrt(1-ab) eps) / sqrt(ab)."""
    sched._check_t(t)
    y_t = np.asarray(y_t)
    eps_hat = np.asarray(eps_hat)
    out = np.empty(np.broadcast_shapes(y_t.shape, eps_hat.shape))
    return _predict_x0(out, y_t, eps_hat, sched.alpha_bar[t])


@dataclass(frozen=True)
class GuidanceConfig:
    """How the per-step observation-blend weight is chosen: ``fixed`` uses
    nu at every step, ``temporal`` scales it by min(1, t/T)."""

    mode: str = "temporal"
    nu: float = 1.0

    def __post_init__(self):
        if self.mode not in _GUIDANCE_MODES:
            raise InvalidArgumentError(f"unknown guidance mode {self.mode!r}")
        if not (0.0 <= self.nu <= 1.0):
            raise InvalidArgumentError("nu must lie in [0, 1]")


def guidance_weight(t: int, cfg: GuidanceConfig, T: int) -> float:
    """Blend weight at step t, in [0, 1]: nu in fixed mode and
    min(1, t/T) * nu in temporal mode, with T the horizon of the noise
    schedule being sampled."""
    if t < 0:
        raise InvalidArgumentError("t must be >= 0")
    if cfg.mode == "fixed":
        return float(cfg.nu)
    return float(min(1.0, t / T) * cfg.nu)


def _guidance_lambda(lam: float) -> float:
    """Check a guidance weight and clamp it into [0, 1] with a warning."""
    if not np.isfinite(lam):
        raise InvalidArgumentError("guidance weight must be finite")
    if lam < 0.0 or lam > 1.0:
        warnings.warn(f"guidance weight {lam} clamped into [0, 1]", GuidanceClampWarning)
        lam = min(1.0, max(0.0, lam))
    return lam


def _guide_rows(x0, ys_rows, rows, lam: float, diff):
    """x0[rows] <- x0[rows] + lam * (ys_rows - x0[rows]) in place, for a
    weight already in [0, 1] and rows an index array or slice(None) (every
    row); lam = 1 copies ys_rows exactly and lam = 0 changes nothing. diff
    has ys_rows' shape and is overwritten.
    """
    if lam == 1.0:
        x0[rows] = ys_rows
    elif lam != 0.0:
        np.subtract(ys_rows, x0[rows], out=diff)
        diff *= lam
        x0[rows] += diff


def apply_sparse_guidance(y0_hat, y_s, active, lam: float):
    """Blend observed rows into the prediction:
    y0_tilde = y0_hat + lam * M o (y_s - y0_hat).

    y_s must have y0_hat's shape. Unmasked rows pass through bit-exactly;
    lam = 1 copies observed rows exactly. Weights outside [0, 1] are clamped
    with a GuidanceClampWarning.
    """
    lam = _guidance_lambda(lam)
    y0_hat = np.asarray(y0_hat)
    y_s = np.asarray(y_s)
    require_shape(y_s.shape, y0_hat.shape, "y_s")
    active = row_flags(active, y0_hat)
    if lam == 0.0:
        return y0_hat
    rows = np.flatnonzero(active)
    ys_rows = y_s[rows]
    dtype = np.result_type(y0_hat, ys_rows, lam)
    out = np.array(y0_hat, dtype=dtype)
    _guide_rows(out, ys_rows, rows, lam, np.empty(ys_rows.shape, dtype))
    return out


def _ddim_update(out, y0_tilde, eps_hat, ab_prev, sigma_t: float, rng, buf):
    """out <- sqrt(ab_prev) y0_tilde + sqrt(1 - ab_prev) eps_hat + sigma_t z,
    summed in that order, with z drawn into buf only when sigma_t > 0.

    out may be the array eps_hat was predicted from, and eps_hat may share
    memory with it: eps_hat is read before out is written, and never written.
    """
    np.multiply(eps_hat, np.sqrt(1.0 - ab_prev), out=buf)
    np.multiply(y0_tilde, np.sqrt(ab_prev), out=out)
    out += buf
    if sigma_t > 0.0:
        rng.standard_normal(out=buf)
        buf *= sigma_t
        out += buf
    return out


def ddim_step(y_t, y0_tilde, eps_hat, t: int, t_prev: int, sched: NoiseSchedule,
              sigma_t: float = 0.0, rng=None):
    """One reverse jump t -> t_prev:
    y_prev = sqrt(ab_prev) y0_tilde + sqrt(1 - ab_prev) eps_hat + sigma_t z.
    sigma_t = 0 is deterministic.
    """
    if not (0 <= t_prev < t <= sched.T):
        raise InvalidArgumentError(f"need 0 <= t_prev < t <= T, got {t_prev}, {t}")
    if sigma_t < 0:
        raise InvalidArgumentError("sigma_t must be >= 0")
    if sigma_t > 0.0 and rng is None:
        raise InvalidArgumentError("stochastic step needs an rng")
    y0_tilde = np.asarray(y0_tilde)
    eps_hat = np.asarray(eps_hat)
    shape = np.broadcast_shapes(y0_tilde.shape, eps_hat.shape)
    out = np.empty(shape)
    return _ddim_update(out, y0_tilde, eps_hat, sched.alpha_bar[t_prev], sigma_t,
                        rng, np.empty(shape))


def cfg_combine(eps_cond, eps_uncond, omega: float):
    """Classifier-free mix: (1 + omega) eps_cond - omega eps_uncond."""
    return (1.0 + omega) * np.asarray(eps_cond) - omega * np.asarray(eps_uncond)


@dataclass(frozen=True, eq=False)
class LambdaInputs:
    """Norms and inner product of the error vector pair used by the optimal
    correction weight: a = |zeta|, b = |xi|, c = <zeta, xi>."""

    a: float
    b: float
    c: float
    zeta: np.ndarray | None = field(default=None, repr=False)
    xi: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        vals = (self.a, self.b, self.c)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidArgumentError("lambda inputs must be finite")
        if self.a < 0 or self.b < 0:
            raise InvalidArgumentError("norms must be >= 0")
        bound = self.a * self.b
        if abs(self.c) > bound + 1e-12 * max(1.0, bound):
            raise InvalidArgumentError("|c| exceeds a*b: not a valid inner product")

    @classmethod
    def from_vectors(cls, zeta, xi) -> "LambdaInputs":
        zeta = np.asarray(zeta, dtype=np.float64).ravel()
        xi = np.asarray(xi, dtype=np.float64).ravel()
        if zeta.shape != xi.shape:
            raise InvalidArgumentError("zeta and xi must have equal length")
        if not (np.all(np.isfinite(zeta)) and np.all(np.isfinite(xi))):
            raise InvalidArgumentError("lambda input vectors must be finite")
        a = float(np.linalg.norm(zeta))
        b = float(np.linalg.norm(xi))
        c = float(zeta @ xi)
        # guard against harmless floating overshoot of Cauchy-Schwarz
        bound = a * b
        if abs(c) > bound:
            c = bound if c > 0 else -bound
        return cls(a=a, b=b, c=c, zeta=zeta, xi=xi)


def optimal_lambda(li: LambdaInputs) -> float:
    """Closed-form minimizer of |(1-lam) zeta + lam xi|^2 over [0, 1].

    lam* = (a^2 - c) / (a^2 + b^2 - 2c), clamped; a degenerate denominator
    (zeta == xi) returns 0.
    """
    denom = li.a**2 + li.b**2 - 2.0 * li.c
    if abs(denom) <= 1e-12:
        return 0.0
    lam = (li.a**2 - li.c) / denom
    return min(1.0, max(0.0, lam))


def optimal_lambda_oracle(li: LambdaInputs, grid_step: float = 1e-4) -> float:
    """Exhaustive grid minimizer of the same objective (lowest-index ties)."""
    if not (0.0 < grid_step <= 1.0):
        raise InvalidArgumentError("grid_step must lie in (0, 1]")
    n = int(round(1.0 / grid_step))
    lams = np.linspace(0.0, 1.0, n + 1)
    if li.zeta is not None and li.xi is not None:
        mix = (1.0 - lams)[:, None] * li.zeta[None, :] + lams[:, None] * li.xi[None, :]
        f = np.einsum("ij,ij->i", mix, mix)
    else:
        f = (1 - lams) ** 2 * li.a**2 + lams**2 * li.b**2 + 2 * lams * (1 - lams) * li.c
    return float(lams[np.argmin(f)])


def lambda_worst_case_bound(a: float, b: float) -> float:
    """Minimizer of ((1-lam) a + lam b)^2 over [0, 1]: clamp(a / (a - b)).

    Equal norms are degenerate (objective constant in the worst case) and
    return 0.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or a < 0 or b < 0:
        raise InvalidArgumentError("a, b must be finite and >= 0")
    if abs(a - b) <= 1e-12 * max(1.0, a, b):
        return 0.0
    return min(1.0, max(0.0, a / (a - b)))
