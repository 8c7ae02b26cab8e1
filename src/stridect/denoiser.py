"""Noise predictors and score models.

Two families live here: closed-form Gaussian oracles used by tests and the
analytic pipeline mode, and a tiny trainable convolutional network with
hand-derived backpropagation (verified against finite differences by
``grad_check``). The network is deliberately small: three 3x3 conv layers
with periodic padding, tanh nonlinearities, and a per-timestep scalar
embedding added channelwise, under 10^4 parameters in every configuration.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalAbortError, ShapeMismatchError
from .diffusion import NoiseSchedule

MAGIC = b"STRDNET1"
MAX_PARAMS = 10_000
# score nets train on t ~ U(SCORE_T_MIN, 1], and the corrector anneals over it
SCORE_T_MIN = 0.02

_OFFSETS = [(da, db) for da in (-1, 0, 1) for db in (-1, 0, 1)]


# ---------------------------------------------------------------------------
# analytic oracles


class _ClosedFormDenoiser:
    """Noise-prediction contract around a closed-form estimate x0 of y0.

    The noise estimate re-arranges the forward kernel around x0,
    (y_t - sqrt(ab) x0) / sqrt(1 - ab); t = 0 returns zeros (the clean
    limit has no noise to explain). Subclasses give only ``_x0``, which
    returns a fresh array of the broadcast shape that the rule then
    overwrites.
    """

    conditional = False

    def predict_eps(self, y_t, t: int, condition=None):
        self.sched._check_t(t)
        y_t = np.asarray(y_t, dtype=np.float64)
        if t == 0:
            return np.zeros_like(y_t)
        ab = self.sched.alpha_bar[t]
        sab = np.sqrt(ab)
        out = self._x0(y_t, ab, sab)
        out *= sab
        np.subtract(y_t, out, out=out)
        out /= np.sqrt(1.0 - ab)
        return out


class AnalyticGaussianDenoiser(_ClosedFormDenoiser):
    """Exact posterior noise prediction for y0 ~ N(prior_mean, prior_var I)."""

    def __init__(self, prior_mean, prior_var: float, sched: NoiseSchedule):
        self.prior_mean = np.asarray(prior_mean, dtype=np.float64)
        self.prior_var = float(prior_var)
        self.sched = sched
        # scratch for the (1 - ab) mu term; one caller at a time
        self._scratch = np.empty_like(self.prior_mean)

    def _x0(self, y_t, ab, sab):
        """E[y0 | y_t] = (sqrt(ab) v y_t + (1 - ab) mu) / (ab v + 1 - ab),
        one operation at a time in the order the formula reads."""
        if self.prior_var < 0:
            raise InvalidArgumentError("prior_var must be non-negative")
        v = max(self.prior_var, 1e-12)
        out = np.multiply(y_t, sab * v, out=np.empty(
            np.broadcast_shapes(y_t.shape, self._scratch.shape)))
        out += np.multiply(self.prior_mean, 1.0 - ab, out=self._scratch)
        out /= ab * v + 1.0 - ab
        return out


class CoupledGaussianDenoiser(AnalyticGaussianDenoiser):
    """Gaussian posterior followed by neighbor mixing along the view axis.

    After the per-pixel posterior mean, each row is blended with the
    average of its two periodic neighbors (weight ``mix``). That spreads
    information across adjacent views the way a learned model does, so
    guided values on observed rows influence their unobserved neighbors on
    the next step.
    """

    def __init__(self, prior_mean, prior_var: float, sched: NoiseSchedule,
                 mix: float = 0.5):
        if not 0.0 <= mix <= 1.0:
            raise InvalidArgumentError("mix must lie in [0, 1]")
        super().__init__(prior_mean, prior_var, sched)
        self.mix = float(mix)

    def _x0(self, y_t, ab, sab):
        x0 = super()._x0(y_t, ab, sab)
        neighbors = 0.5 * (np.roll(x0, 1, axis=0) + np.roll(x0, -1, axis=0))
        x0 *= 1.0 - self.mix
        x0 += self.mix * neighbors
        return x0


class ExactNoiseDenoiser(_ClosedFormDenoiser):
    """Oracle that knows the clean target and returns the exact residual
    noise for any y_t; useful for trajectory fixed-point tests."""

    def __init__(self, y0, sched: NoiseSchedule):
        self.y0 = np.asarray(y0, dtype=np.float64)
        self.sched = sched

    def _x0(self, y_t, ab, sab):
        return np.array(np.broadcast_to(
            self.y0, np.broadcast_shapes(y_t.shape, self.y0.shape)))


def ve_sigma(t):
    """Variance-exploding noise level, geometric from 0.01 at t = 0 to 1 at t = 1."""
    out = 1e-2 * (1.0 / 1e-2) ** np.asarray(t, dtype=np.float64)
    return float(out) if out.ndim == 0 else out


class AnalyticGaussianScore:
    """Score contract for a fixed Gaussian; ignores the time argument."""

    def __init__(self, mean, var: float):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.var = float(var)

    def score(self, y, t: float):
        """Score of N(mean, var I): -(y - mean) / var."""
        if self.var <= 0:
            raise InvalidArgumentError("var must be positive")
        # -(y - mean) / var with one allocation; (mean - y) / var would flip
        # the sign of zeros
        d = np.asarray(np.asarray(y, dtype=np.float64) - self.mean)
        np.negative(d, out=d)
        d /= self.var
        return d


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


def init_tiny_net(in_ch: int, out_ch: int, hidden: int = 16, seed: int = 0,
                  last_scale: float = 0.05) -> TinyNetParams:
    if hidden < 1:
        raise InvalidArgumentError("hidden must be >= 1")
    rng = np.random.default_rng(seed)
    p = TinyNetParams(
        w1=rng.normal(0.0, 1.0 / np.sqrt(9.0 * in_ch), (hidden, in_ch, 3, 3)),
        b1=np.zeros(hidden),
        tw=rng.normal(0.0, 0.01, hidden),
        tb=np.zeros(hidden),
        w2=rng.normal(0.0, 1.0 / np.sqrt(9.0 * hidden), (hidden, hidden, 3, 3)),
        b2=np.zeros(hidden),
        w3=rng.normal(0.0, last_scale / np.sqrt(9.0 * hidden), (out_ch, hidden, 3, 3)),
        b3=np.zeros(out_ch),
    )
    if p.n_params >= MAX_PARAMS:
        raise InvalidArgumentError(f"{p.n_params} parameters; limit is {MAX_PARAMS}")
    return p


def _stack_taps(x, sign: int):
    """Periodically shifted copies of x (B,C,H,W) -> (B, C*9, H*W); sign=-1
    for forward taps (x[i+da, j+db]), +1 for the transposed direction."""
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="wrap")
    out = np.empty((b, c, 9, h, w), dtype=x.dtype)
    for k, (da, db) in enumerate(_OFFSETS):
        i, j = 1 - sign * da, 1 - sign * db
        out[:, :, k] = xp[:, :, i:i + h, j:j + w]
    return out.reshape(b, c * 9, h * w)


def _conv(x, w):
    """Periodic 3x3 convolution. Returns (out (B,O,H,W), tap stack)."""
    b, c, h, wid = x.shape
    taps = _stack_taps(x, -1)
    out = np.matmul(w.reshape(w.shape[0], -1), taps)
    return out.reshape(b, w.shape[0], h, wid), taps


def _conv_bwd_data(dout, w):
    """Gradient wrt the conv input."""
    b, o, h, wid = dout.shape
    taps = _stack_taps(dout, +1)
    wt = w.transpose(1, 0, 2, 3).reshape(w.shape[1], -1)
    return np.matmul(wt, taps).reshape(b, w.shape[1], h, wid)


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
    dh2 = _conv_bwd_data(dout, p.w3)
    dpre2 = dh2 * (1.0 - h2 * h2)
    dw2 = _conv_bwd_weight(dpre2, taps2, p.w2.shape)
    db2 = dpre2.sum(axis=(0, 2, 3))
    dh1 = _conv_bwd_data(dpre2, p.w2)
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


def grad_check(p: TinyNetParams, x, s, target, step: float = 1e-4) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients over every parameter.

    Relative error uses |ga - gn| / max(|ga| + |gn|, 1e-4); the floor keeps
    finite-difference truncation noise from dominating near-zero entries.
    """
    _, grads = loss_and_grads(p, x, s, target)
    arrays = p.as_list()
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
    """Plain Adam with bias correction; deterministic and stateful."""

    def __init__(self, params: TinyNetParams, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in params.as_list()]
        self.v = [np.zeros_like(a) for a in params.as_list()]

    def step(self, params: TinyNetParams, grads):
        self.t += 1
        arrays = params.as_list()
        for i, (a, g) in enumerate(zip(arrays, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            mhat = self.m[i] / (1 - self.beta1**self.t)
            vhat = self.v[i] / (1 - self.beta2**self.t)
            a -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


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
        if y.shape[0] != self.params.in_channels:
            raise ShapeMismatchError(
                f"expected {self.params.in_channels} channels, got {y.shape[0]}"
            )
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
    buf = fh.read(n)
    if len(buf) != n:
        raise InvalidArgumentError(f"{path}: truncated model file")
    return buf


def load_params(path) -> TinyNetParams:
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise InvalidArgumentError(f"{path}: bad magic, not a model file")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path))
        arrays = []
        for _ in range(count):
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, path))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path))
            n = int(np.prod(shape)) if shape else 1
            buf = _read_exact(fh, 8 * n, path)
            arrays.append(np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape))
        extra = fh.read(1)
    if extra:
        raise InvalidArgumentError(f"{path}: trailing bytes after parameter data")
    return TinyNetParams.from_list(arrays)
