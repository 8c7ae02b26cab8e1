"""Noise predictors and score models.

Two families live here. One closed-form Gaussian noise rule, used by tests
and the analytic pipeline mode, writes the noise directly rather than through
an estimate of the clean data; a view-coupled variant extends it, and the
exact-noise oracle is its point prior at the clean target. Beside it sits a
tiny trainable convolutional network with hand-derived backpropagation
(verified against finite differences by ``grad_check``). The network is
deliberately small: three 3x3 conv layers with periodic padding, tanh
nonlinearities, and a per-timestep scalar embedding added channelwise, under
10^4 parameters in every configuration.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import (InvalidArgumentError, NumericalAbortError, ShapeMismatchError,
                     require_seed)
from .diffusion import NoiseSchedule
from .geometry import row_flags

MAGIC = b"STRDNET1"
MAX_PARAMS = 10_000
LAST_SCALE = 0.05  # output-layer init std, as a fraction of the fan-in scaling
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, divisor offset
# score nets train on t ~ U(SCORE_T_MIN, 1], and the corrector anneals over it
SCORE_T_MIN = 0.02


# ---------------------------------------------------------------------------
# analytic oracles


def _broadcasts_to(shape, target) -> bool:
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


class AnalyticGaussianDenoiser:
    """Exact posterior noise prediction for y0 ~ N(prior_mean, prior_var I);
    prior_var 0 is the point prior at prior_mean, and below 0 is rejected.

    The noise is predicted directly, not through the posterior mean:
    eps = sqrt(1 - ab) (y_t - sqrt(ab) mu) / (ab v + 1 - ab), with v taken
    as given: the divisor stays above 0 for every t >= 1, so v = 0 needs no
    floor and gives (y_t - sqrt(ab) mu) / sqrt(1 - ab).

    ``predict_eps`` returns y_t's shape, so y_t must have prior_mean's shape
    or one prior_mean broadcasts to (a scalar or a (1, D) mean fits every
    (N, D) y_t); any other y_t raises ShapeMismatchError naming both shapes,
    at every t. t = 0 returns zeros (the clean limit has no noise to
    explain). Otherwise the noise is ``_eps(y_t, ab)`` for ab = alpha_bar[t]
    as a Python float, a fresh array of y_t's shape. A pixel's noise reads
    only that pixel of y_t and prior_mean (``pixelwise``; see :meth:`rows`).
    """

    conditional = False
    pixelwise = True

    def __init__(self, prior_mean, prior_var: float, sched: NoiseSchedule):
        if not prior_var >= 0:
            raise InvalidArgumentError("prior_var must be non-negative")
        self.prior_mean = np.asarray(prior_mean, dtype=np.float64)
        self.prior_var = float(prior_var)
        self.sched = sched
        # scratch for the mu term; one caller at a time
        self._scratch = np.empty_like(self.prior_mean)

    def predict_eps(self, y_t, t: int, condition=None):
        self.sched._check_t(t)
        y_t = np.asarray(y_t, dtype=np.float64)
        mean = self.prior_mean.shape
        if mean != y_t.shape and not _broadcasts_to(mean, y_t.shape):
            raise ShapeMismatchError(f"y_t of shape {y_t.shape} does not fit the "
                                     f"prior_mean of shape {mean}")
        if t == 0:
            return np.zeros_like(y_t)
        return self._eps(y_t, float(self.sched.alpha_bar[t]))

    def rows(self, flags):
        """This model on the rows ``flags`` sets, one flag per row of y_t: one of
        its class with prior_mean[flags] as its mean, bytes included. A mean
        that broadcasts over rows (a scalar, one row or one dimension) is kept
        whole; any other needs one row per flag, or ShapeMismatchError."""
        part = copy.copy(self)
        if self.prior_mean.ndim >= 2 and self.prior_mean.shape[0] > 1:
            part.prior_mean = self.prior_mean[row_flags(flags, self.prior_mean)]
            part._scratch = np.empty_like(part.prior_mean)
        return part

    def _eps(self, y_t, ab):
        """Three passes: out = y_t k, then out -= mu (sqrt(ab) k), with the
        Python float k = sqrt(1 - ab) / (ab v + 1 - ab)."""
        k = math.sqrt(1.0 - ab) / (ab * self.prior_var + 1.0 - ab)
        out = np.multiply(y_t, k, out=np.empty(y_t.shape))
        out -= np.multiply(self.prior_mean, math.sqrt(ab) * k, out=self._scratch)
        return out


class CoupledGaussianDenoiser(AnalyticGaussianDenoiser):
    """Gaussian posterior followed by neighbor mixing along the view axis.

    The posterior mean x0 is blended with the average of its two periodic
    row neighbors nb(x0) (weight ``mix``). That spreads information across
    adjacent views the way a learned model does, so guided values on
    observed rows influence their unobserved neighbors on the next step.
    The noise is the plain Gaussian one minus the blend's share,
    sqrt(ab) mix / sqrt(1 - ab) (nb(x0) - x0); at mix 0 it is the plain
    noise, bytes included. The mixing reads neighbouring rows, so the model
    is not ``pixelwise``.
    """

    pixelwise = False

    def __init__(self, prior_mean, prior_var: float, sched: NoiseSchedule,
                 mix: float = 0.5):
        if not 0.0 <= mix <= 1.0:
            raise InvalidArgumentError("mix must lie in [0, 1]")
        super().__init__(prior_mean, prior_var, sched)
        self.mix = float(mix)

    def _eps(self, y_t, ab):
        eps = super()._eps(y_t, ab)
        if self.mix == 0.0:
            return eps
        sab, v = math.sqrt(ab), self.prior_var
        # x0 = (sqrt(ab) v y_t + (1 - ab) mu) / (ab v + 1 - ab)
        x0 = np.multiply(y_t, sab * v, out=np.empty(eps.shape))
        x0 += np.multiply(self.prior_mean, 1.0 - ab, out=self._scratch)
        x0 /= ab * v + 1.0 - ab
        d = np.roll(x0, 1, axis=0)
        d += np.roll(x0, -1, axis=0)
        d *= 0.5
        d -= x0
        d *= sab * self.mix / math.sqrt(1.0 - ab)
        eps -= d
        return eps


class ExactNoiseDenoiser(AnalyticGaussianDenoiser):
    """Oracle that knows the clean target y0: the point prior at y0, whose
    noise is the exact residual (y_t - sqrt(ab) y0) / sqrt(1 - ab) of any
    y_t, to rounding; useful for trajectory fixed-point tests."""

    def __init__(self, y0, sched: NoiseSchedule):
        super().__init__(y0, 0.0, sched)


def ve_sigma(t):
    """Variance-exploding noise level, geometric from 0.01 at t = 0 to 1 at t = 1."""
    out = 1e-2 * (1.0 / 1e-2) ** np.asarray(t, dtype=np.float64)
    return float(out) if out.ndim == 0 else out


class AnalyticGaussianScore:
    """Independent-pixel Gaussian N(mean, var I), var > 0: its score, which
    ignores the time argument, and the closed form of Langevin steps under it."""

    def __init__(self, mean, var: float):
        if not var > 0:
            raise InvalidArgumentError(f"Gaussian score var={var:g} must be positive")
        self.mean = np.asarray(mean, dtype=np.float64)
        self.var = float(var)

    def score(self, y, t: float):
        """Score of N(mean, var I): -(y - mean) / var."""
        # -(y - mean) / var with one allocation; (mean - y) / var would flip
        # the sign of zeros
        d = np.asarray(np.asarray(y, dtype=np.float64) - self.mean)
        np.negative(d, out=d)
        d /= self.var
        return d

    def langevin_factors(self, e) -> tuple[float, float]:
        """Deviation factor P and noise scale S of Langevin steps of sizes ``e``.

        Each step maps the deviation d = x - mean to a_k d + sqrt(2 e_k) z_k with
        a_k = 1 - e_k / var, so after the last step d is P d_0 + S z with
        P = prod_k a_k, S^2 = sum_j 2 e_j prod_{i>j} a_i^2 and z ~ N(0, I).

        Operation order, from P = 1.0 and S = 0.0 as Python floats: for each k,
        a = 1.0 - e_k / var, P *= a, S = math.hypot(a * S, math.sqrt(2.0 * e_k)).
        (S is carried rather than S^2 = a^2 S^2 + 2 e_k, which overflows at half
        the exponent the chain itself reaches.) A |P| > 1 or an S that is not
        finite is rejected: such a chain grows the deviation from the mean that
        it should shrink, or overflows, whatever its start.
        """
        p, s = 1.0, 0.0
        for ek in e.tolist():
            a = 1.0 - ek / self.var
            p *= a
            s = math.hypot(a * s, math.sqrt(2.0 * ek))
        if not (abs(p) <= 1.0 and math.isfinite(s)):
            raise InvalidArgumentError(
                f"Langevin steps from eps={e[0]:.3g} scale deviations under var={self.var:g} "
                f"by {p:.3g} (noise scale {s:.3g}), not a finite shrink; lower eps_start "
                "or raise the var (prior_var for the default band scores)")
        return p, s

    def langevin_steps(self, x, e, rngs, branch: str):
        """Apply Langevin steps of sizes ``e`` to the band or band stack x in
        place, all at once.

        With P and S from :meth:`langevin_factors`, the deviation from the mean
        becomes P d_0 + S z: the step loop's distribution exactly, but not its
        bytes. Operation order: x -= mean, x *= P, x += mean, and band by band
        in band order, z = rngs[b].standard_normal(band shape), z *= S,
        x[b] += z. A non-finite result aborts, naming the ``branch``.
        """
        p, s = self.langevin_factors(e)
        x -= self.mean
        x *= p
        x += self.mean
        for xb, rng in zip(x.reshape((-1,) + x.shape[-2:]), rngs):  # band axis first
            z = rng.standard_normal(xb.shape)
            z *= s
            xb += z
        if not np.all(np.isfinite(x)):
            raise NumericalAbortError(f"non-finite {branch}-band Gaussian refinement "
                                      f"(deviation factor {p:.3g}, noise scale {s:.3g})")


# ---------------------------------------------------------------------------
# tiny trainable network


@dataclass
class TinyNetParams:
    """Parameters of the 3-layer periodic conv net. Order matters for the
    optimizer, serialization and gradient checks."""

    w1: np.ndarray
    b1: np.ndarray
    tw: np.ndarray  # timestep embedding scale, per hidden channel
    tb: np.ndarray  # timestep embedding bias
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def as_list(self):
        return [self.w1, self.b1, self.tw, self.tb, self.w2, self.b2, self.w3, self.b3]

    @classmethod
    def from_list(cls, arrays):
        if len(arrays) != 8:
            raise InvalidArgumentError("expected 8 parameter arrays")
        return cls(*arrays)

    @property
    def in_channels(self):
        return self.w1.shape[1]

    @property
    def out_channels(self):
        return self.w3.shape[0]

    @property
    def hidden(self):
        return self.w1.shape[0]

    @property
    def n_params(self):
        return sum(a.size for a in self.as_list())

    def __post_init__(self):
        """Reject layers whose shapes do not chain, and nets of MAX_PARAMS
        parameters or more, whether built here or loaded from a file."""
        if np.ndim(self.w1) != 4 or np.ndim(self.w3) != 4 or 0 in self.w1.shape + self.w3.shape:
            raise InvalidArgumentError("w1 and w3 must be non-empty 4-D conv kernels")
        h, c_in, c_out = self.hidden, self.in_channels, self.out_channels
        want = [(h, c_in, 3, 3), (h,), (h,), (h,), (h, h, 3, 3), (h,), (c_out, h, 3, 3), (c_out,)]
        for f, a, shape in zip(fields(self), self.as_list(), want):
            if np.shape(a) != shape:
                raise InvalidArgumentError(f"{f.name} has shape {np.shape(a)}, expected "
                                           f"{shape} for {h} hidden channels")
        if self.n_params >= MAX_PARAMS:
            raise InvalidArgumentError(f"{self.n_params} parameters; limit is {MAX_PARAMS}")


def init_tiny_net(in_ch: int, out_ch: int, hidden: int = 16, seed: int = 0) -> TinyNetParams:
    if hidden < 1:
        raise InvalidArgumentError("hidden must be >= 1")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    return TinyNetParams(
        w1=rng.normal(0.0, 1.0 / np.sqrt(9.0 * in_ch), (hidden, in_ch, 3, 3)),
        b1=np.zeros(hidden),
        tw=rng.normal(0.0, 0.01, hidden),
        tb=np.zeros(hidden),
        w2=rng.normal(0.0, 1.0 / np.sqrt(9.0 * hidden), (hidden, hidden, 3, 3)),
        b2=np.zeros(hidden),
        w3=rng.normal(0.0, LAST_SCALE / np.sqrt(9.0 * hidden), (out_ch, hidden, 3, 3)),
        b3=np.zeros(out_ch),
    )


def _stack_taps(x, sign: int):
    """Periodically shifted copies of x (B,C,H,W) -> (B, C*9, H*W): tap
    3 (da + 1) + (db + 1) is x[i - sign da, j - sign db] for da, db in
    (-1, 0, 1), so sign -1 gives the forward taps and +1 the transposed ones."""
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="wrap")
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    win = win[..., ::-1, ::-1] if sign > 0 else win
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * 9, h * w)


def _conv(x, w, sign: int = -1):
    """Periodic 3x3 convolution over the taps of :func:`_stack_taps`: sign -1
    is the forward pass, and sign +1 with w.transpose(1, 0, 2, 3) is its exact
    transpose, the gradient wrt the input. Returns (out (B,O,H,W), taps)."""
    b, c, h, wid = x.shape
    taps = _stack_taps(x, sign)
    out = np.matmul(w.reshape(w.shape[0], -1), taps)
    return out.reshape(b, w.shape[0], h, wid), taps


def _conv_bwd_weight(dout, taps, wshape):
    b, o, h, wid = dout.shape
    d2 = dout.reshape(b, o, h * wid)
    return np.tensordot(d2, taps, axes=([0, 2], [0, 2])).reshape(wshape)


def forward_tiny(p: TinyNetParams, x, s):
    """Run the net on a batch.

    Parameters
    ----------
    x : (B, C_in, H, W) input stack.
    s : (B,) timestep scalars (t/T for noise prediction, continuous t for
        scores), embedded as tw * s + tb and added channelwise after conv1.
    """
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != p.in_channels:
        raise ShapeMismatchError(f"expected (B, {p.in_channels}, H, W), got {x.shape}")
    pre1, taps1 = _conv(x, p.w1)
    temb = s[:, None] * p.tw[None, :] + p.tb[None, :]
    pre1 = pre1 + p.b1[None, :, None, None] + temb[:, :, None, None]
    h1 = np.tanh(pre1)
    pre2, taps2 = _conv(h1, p.w2)
    h2 = np.tanh(pre2 + p.b2[None, :, None, None])
    out, taps3 = _conv(h2, p.w3)
    out = out + p.b3[None, :, None, None]
    cache = (s, taps1, h1, taps2, h2, taps3)
    return out, cache


def backward_tiny(p: TinyNetParams, cache, dout):
    """Hand-derived gradients of a scalar loss wrt every parameter, given
    dLoss/dOut. Returns arrays in ``as_list`` order."""
    s, taps1, h1, taps2, h2, taps3 = cache
    dout = np.asarray(dout, dtype=np.float64)
    dw3 = _conv_bwd_weight(dout, taps3, p.w3.shape)
    db3 = dout.sum(axis=(0, 2, 3))
    dh2 = _conv(dout, p.w3.transpose(1, 0, 2, 3), +1)[0]
    dpre2 = dh2 * (1.0 - h2 * h2)
    dw2 = _conv_bwd_weight(dpre2, taps2, p.w2.shape)
    db2 = dpre2.sum(axis=(0, 2, 3))
    dh1 = _conv(dpre2, p.w2.transpose(1, 0, 2, 3), +1)[0]
    dpre1 = dh1 * (1.0 - h1 * h1)
    dw1 = _conv_bwd_weight(dpre1, taps1, p.w1.shape)
    db1 = dpre1.sum(axis=(0, 2, 3))
    per_sample = dpre1.sum(axis=(2, 3))
    dtw = (per_sample * s[:, None]).sum(axis=0)
    dtb = per_sample.sum(axis=0)
    return [dw1, db1, dtw, dtb, dw2, db2, dw3, db3]


def _mse(p: TinyNetParams, x, s, target):
    """Forward pass and mean-squared error: (loss, out - target, cache)."""
    out, cache = forward_tiny(p, x, s)
    diff = out - np.asarray(target, dtype=np.float64)
    return float(np.mean(diff * diff)), diff, cache


def loss_and_grads(p: TinyNetParams, x, s, target):
    """Mean-squared prediction loss and its parameter gradients."""
    loss, diff, cache = _mse(p, x, s, target)
    dout = (2.0 / diff.size) * diff
    return loss, backward_tiny(p, cache, dout)


def grad_check(p: TinyNetParams, x, s, target) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients over every parameter, with differences of step 1e-4.

    Relative error uses |ga - gn| / max(|ga| + |gn|, 1e-4); the floor keeps
    finite-difference truncation noise from dominating near-zero entries.
    """
    _, grads = loss_and_grads(p, x, s, target)
    arrays = p.as_list()
    step = 1e-4
    worst = 0.0
    for ai, arr in enumerate(arrays):
        flat = arr.ravel()
        gflat = grads[ai].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            lp = _mse(p, x, s, target)[0]
            flat[i] = keep - step
            lm = _mse(p, x, s, target)[0]
            flat[i] = keep
            gn = (lp - lm) / (2.0 * step)
            ga = gflat[i]
            rel = abs(ga - gn) / max(abs(ga) + abs(gn), 1e-4)
            worst = max(worst, rel)
    return worst


class Adam:
    """Plain Adam with bias correction (ADAM_BETA1, ADAM_BETA2, ADAM_EPS);
    deterministic and stateful."""

    def __init__(self, params: TinyNetParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in params.as_list()]
        self.v = [np.zeros_like(a) for a in params.as_list()]

    def step(self, params: TinyNetParams, grads):
        self.t += 1
        arrays = params.as_list()
        for i, (a, g) in enumerate(zip(arrays, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g * g
            mhat = self.m[i] / (1 - ADAM_BETA1**self.t)
            vhat = self.v[i] / (1 - ADAM_BETA2**self.t)
            a -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# trained-model wrappers


class TinyEpsNet:
    """Conditional noise predictor. Input channels: (noisy data, condition);
    an absent condition is an all-zero channel, so the conditional and
    unconditional passes differ only there."""

    conditional = True

    def __init__(self, params: TinyNetParams, sched: NoiseSchedule):
        if params.in_channels != 2 or params.out_channels != 1:
            raise InvalidArgumentError("noise predictor needs 2 input / 1 output channels")
        self.params = params
        self.sched = sched

    def predict_eps(self, y_t, t: int, condition=None):
        self.sched._check_t(t)
        y_t = np.asarray(y_t, dtype=np.float64)
        cond = np.zeros_like(y_t) if condition is None else np.asarray(condition)
        x = np.stack([y_t, cond])[None]
        s = np.array([t / self.sched.T])
        out, _ = forward_tiny(self.params, x, s)
        return out[0, 0]


class TinyScoreNet:
    """Score model over one or several stacked bands."""

    def __init__(self, params: TinyNetParams):
        if params.in_channels != params.out_channels:
            raise InvalidArgumentError("score net must preserve channel count")
        self.params = params

    def score(self, y, t: float):
        y = np.asarray(y, dtype=np.float64)
        squeeze = y.ndim == 2
        if squeeze:
            y = y[None]
        out, _ = forward_tiny(self.params, y[None], np.array([t]))
        return out[0, 0] if squeeze else out[0]


# ---------------------------------------------------------------------------
# training loops


def _corpus(data):
    data = [np.asarray(d, dtype=np.float64) for d in data]
    if not data:
        raise InvalidArgumentError("empty training corpus")
    return data


def _fit(params: TinyNetParams, lr: float, epochs: int, steps_per_epoch: int,
         step_loss):
    """Adam on ``step_loss() -> (loss, grads)``, which draws its own batch;
    aborts on a non-finite loss. Returns the per-epoch mean loss trace."""
    if epochs < 1 or steps_per_epoch < 1:
        raise InvalidArgumentError("epochs and steps_per_epoch must be >= 1")
    if not (np.isfinite(lr) and lr > 0):
        raise InvalidArgumentError(f"lr must be finite and > 0, got {lr}")
    opt = Adam(params, lr)
    trace = []
    step = 0
    for _ in range(epochs):
        losses = []
        for _ in range(steps_per_epoch):
            loss, grads = step_loss()
            step += 1
            if not np.isfinite(loss):
                raise NumericalAbortError(f"non-finite training loss {loss} at step {step}")
            opt.step(params, grads)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return np.asarray(trace)


def train_epsilon(data, sched: NoiseSchedule, *, epochs: int = 50,
                  steps_per_epoch: int = 10, lr: float = 1e-4, p_cond: float = 0.2,
                  view_set=(6, 8, 10, 12), batch_size: int = 4, hidden: int = 16,
                  seed: int = 0, params: TinyNetParams | None = None):
    """Train the conditional noise predictor on a toy corpus.

    Each step draws a batch of (sample, timestep, noise) triples, flips a
    Bernoulli(p_cond) coin per sample for whether the condition channel
    carries the row-masked clean data or zeros, and takes one Adam step on
    the mean-squared noise prediction error. Returns (model, per-epoch mean
    loss trace). Bitwise deterministic for a fixed seed.
    """
    data = _corpus(data)
    if not (0.0 <= p_cond <= 1.0):
        raise InvalidArgumentError("p_cond must lie in [0, 1]")
    n_views = data[0].shape[0]
    require_seed(seed)
    rng = np.random.default_rng(seed)
    if params is None:
        params = init_tiny_net(2, 1, hidden=hidden, seed=seed)
    view_set = tuple(int(v) for v in view_set)

    def step_loss():
        idx = rng.integers(0, len(data), batch_size)
        t = rng.integers(1, sched.T + 1, batch_size)
        y0 = np.stack([data[i] for i in idx])
        eps = rng.standard_normal(y0.shape)
        ab = sched.alpha_bar[t][:, None, None]
        y_t = np.sqrt(ab) * y0 + np.sqrt(1.0 - ab) * eps
        use_cond = rng.random(batch_size) < p_cond
        strides = rng.integers(0, len(view_set), batch_size)
        cond = np.zeros_like(y0)
        for b in range(batch_size):
            if use_cond[b]:
                rows = (np.arange(n_views) % view_set[strides[b]]) == 0
                cond[b] = np.where(rows[:, None], y0[b], 0.0)
        x = np.stack([y_t, cond], axis=1)
        return loss_and_grads(params, x, t / sched.T, eps[:, None])

    trace = _fit(params, lr, epochs, steps_per_epoch, step_loss)
    return TinyEpsNet(params, sched), trace


def train_score(data, *, epochs: int = 50, steps_per_epoch: int = 10,
                lr: float = 1e-3, batch_size: int = 4, hidden: int = 16,
                seed: int = 0, params: TinyNetParams | None = None):
    """Denoising score matching with the variance-exploding sigma.

    Per sample: t ~ U(SCORE_T_MIN, 1], corrupt y with sigma(t) z, minimize
    mean((sigma s_theta(y + sigma z, t) + z)^2), the sigma^2-weighted
    surrogate. Returns (model, per-epoch mean loss trace).
    """
    data = [d[None] if d.ndim == 2 else d for d in _corpus(data)]
    channels = data[0].shape[0]
    require_seed(seed)
    rng = np.random.default_rng(seed)
    if params is None:
        params = init_tiny_net(channels, channels, hidden=hidden, seed=seed)

    def step_loss():
        idx = rng.integers(0, len(data), batch_size)
        y = np.stack([data[i] for i in idx])
        t = SCORE_T_MIN + (1.0 - SCORE_T_MIN) * rng.random(batch_size)
        sigma = ve_sigma(t)[:, None, None, None]
        z = rng.standard_normal(y.shape)
        out, cache = forward_tiny(params, y + sigma * z, t)
        resid = sigma * out + z
        dout = (2.0 / resid.size) * resid * sigma
        return float(np.mean(resid * resid)), backward_tiny(params, cache, dout)

    trace = _fit(params, lr, epochs, steps_per_epoch, step_loss)
    return TinyScoreNet(params), trace


# ---------------------------------------------------------------------------
# serialization


def save_params(params: TinyNetParams, path):
    """Flat binary dump: magic, array count, then per-array shape headers
    followed by little-endian float64 data."""
    arrays = params.as_list()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for a in arrays:
            fh.write(struct.pack("<I", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_exact(fh, n, path):
    """n bytes of fh, refused before the read when fewer are left, so a
    header claiming a huge array allocates nothing."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise InvalidArgumentError(f"{path}: truncated model file")
    return fh.read(n)


def load_params(path) -> TinyNetParams:
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise InvalidArgumentError(f"{path}: bad magic, not a model file")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path))
        arrays = []
        for _ in range(count):
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, path))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path))
            buf = _read_exact(fh, 8 * math.prod(shape), path)
            arrays.append(np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape))
        extra = fh.read(1)
    if extra:
        raise InvalidArgumentError(f"{path}: trailing bytes after parameter data")
    return TinyNetParams.from_list(arrays)
