"""Noise-prediction network eps_theta(x_t, t) and its training machinery.

A small fully connected network on the concatenation of the noisy design
vector and a sinusoidal time embedding. Gradients are exact reverse
accumulation written out by hand; the parameter update is bias-corrected
Adam. Precision is the dtype of the theta passed in: the forward pass, the
loss gradient, backprop, the Adam moments and the Adam update all run in
it. Training keeps a float32 master theta with float32 moments and returns
its exact float64 widening; the sampler scores candidates on a float32 copy
of theta, and the fine-tuning roll-in runs both of its policies in float32.
Sampling, evaluation and model files are float64, and everything is
deterministic given a seed. Inference (predict_noise) runs the network in
row blocks of bounded size, so its memory does not grow with the batch;
training batches are bounded by their batch size and run in one pass.

A model carries its noise schedule and its designs' z-score map (None for raw
coordinates), DenoiserParams.sched and .stats; copies and model files keep both.
"""

import functools
import struct
from dataclasses import dataclass, replace

import numpy as np

from rddkit.config import NetSection
from rddkit.data import BinaryReader, NormStats, write_binary
from rddkit.diffusion import NoiseSchedule, forward_marginal, make_schedule
from rddkit.exceptions import ConfigError, DataError, TrainingDivergenceError

_MAGIC = b"RDDM"
_FORMAT_VERSION = 3
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8     # Adam's decay rates and denominator floor

# size of the hidden activations of one predict_noise block, rows x
# sum(hidden_dims) in the params' dtype: inference runs the network on at
# most that many rows at a time (at least one), whatever the batch size
_PREDICT_BLOCK_BYTES = 1024 * 1024


@dataclass
class DenoiserParams:
    """One vector theta of every weight and bias (float64 or float32), its noise
    schedule, and the designs' z-score map (None: raw coordinates).

    The layout is W0 (row-major), b0, W1, b1, ...; layer_views gives the
    per-layer arrays of theta, or of any vector in the same layout (the
    gradient, the Adam moments).
    """
    theta: np.ndarray
    d: int
    embed_dim: int
    hidden_dims: tuple
    sched: NoiseSchedule
    stats: NormStats = None

    @property
    def layer_weights(self):
        """The per-layer W of theta; rddbench/tracing.py counts FLOPs from it."""
        return [W for W, _ in layer_views(self, self.theta)]


@dataclass
class OptimizerState:
    """Adam moments m and v in the parameter layout and dtype, plus a (2, n) scratch."""
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    learning_rate: float
    step_count: int = 0


def _layer_shapes(d, embed_dim, hidden_dims):
    dims = [d + embed_dim] + list(hidden_dims) + [d]
    return list(zip(dims[:-1], dims[1:]))


def layer_views(params, vec):
    """Per-layer (W, b) views of a vector in the parameter layout of params."""
    views, off = [], 0
    for fan_in, fan_out in _layer_shapes(params.d, params.embed_dim, params.hidden_dims):
        W = vec[off:off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        views.append((W, vec[off:off + fan_out]))
        off += fan_out
    return views


@functools.lru_cache(maxsize=16)
def _embedding_table(dim, T):
    """The read-only (T + 1, dim) float64 embeddings of the timesteps 0..T."""
    half = dim // 2
    freqs = np.ones(1) if half == 1 else float(max(T, 2)) ** (-np.arange(half) / (half - 1))
    args = np.multiply.outer(np.arange(T + 1, dtype=np.float64), freqs)
    emb = np.empty((T + 1, dim), dtype=np.float64)
    emb[:, 0::2] = np.sin(args)
    emb[:, 1::2] = np.cos(args)
    emb.flags.writeable = False
    return emb


def time_embedding(t, dim, T):
    """Sinusoidal embedding of the timestep.

    Interleaved sin/cos of t scaled by dim/2 geometrically spaced
    frequencies spanning 1 down to 1/T, so the whole step range 0..T maps
    onto distinct phases. t may be a scalar or an integer array in 0..T;
    the rows come from a table built once per (dim, T), and a scalar t
    gets a read-only row.
    """
    if dim % 2 != 0:
        raise ConfigError(f"embedding dim must be even, got {dim}")
    return _embedding_table(dim, T)[t]


def init_params(d, net, sched, seed):
    """Fan-in-scaled uniform initialization from a seeded generator.

    net is a config.NetSection, checked before any draw; the params carry sched.
    """
    net.check()
    rng = np.random.default_rng(seed)
    draws = []
    for fan_in, fan_out in _layer_shapes(d, net.embed_dim, net.hidden_dims):
        bound = 1.0 / np.sqrt(fan_in)
        draws += [rng.uniform(-bound, bound, size=fan_in * fan_out),
                  rng.uniform(-bound, bound, size=fan_out)]
    return DenoiserParams(theta=np.concatenate(draws), d=d, embed_dim=net.embed_dim,
                          hidden_dims=tuple(net.hidden_dims), sched=sched)


def clone_params(params):
    return replace(params, theta=params.theta.copy())


def float32_params(params):
    """params with a float32 theta: a float32 copy, or the same array if already float32."""
    return replace(params, theta=params.theta.astype(np.float32, copy=False))


def float64_copy(params):
    """A copy of params with a float64 theta; widening a float32 theta is exact."""
    return replace(params, theta=params.theta.astype(np.float64))


def check_same_schedule(params, other, role):
    """Raise ConfigError naming both schedules unless other, the role, runs under params.sched."""
    a, b = params.sched, other.sched
    if a is not b and (a.T != b.T or not np.array_equal(a.betas, b.betas)):
        named = [f"T={s.T}, betas {float(s.betas[1])!r} to {float(s.betas[-1])!r}" for s in (b, a)]
        raise ConfigError(f"{role} runs under {named[0]}, but the model under {named[1]}")


def init_opt_state(params, learning_rate):
    """Zero Adam moments and a scratch in the dtype of params.theta."""
    n, dtype = params.theta.size, params.theta.dtype
    return OptimizerState(m=np.zeros(n, dtype), v=np.zeros(n, dtype),
                          scratch=np.empty((2, n), dtype), learning_rate=learning_rate)


def _forward(params, X, ts):
    """Forward pass keeping post-activation values for backprop.

    X is (n, d); ts a scalar timestep or per-row array. Returns the list of
    layer activations, the first entry being the embedded input. Every
    activation has the dtype of params.theta.
    """
    emb = time_embedding(ts, params.embed_dim, params.sched.T)
    if emb.ndim == 1:
        emb = np.broadcast_to(emb, (X.shape[0], params.embed_dim))
    dtype = params.theta.dtype
    H = np.concatenate([X, emb], axis=1, dtype=dtype)
    acts = [H]
    layers = layer_views(params, params.theta)
    # the hidden outputs share one block, computed in place: one large allocation
    # per call, of at most _PREDICT_BLOCK_BYTES for predict_noise's row blocks
    n, block = X.shape[0], np.empty(X.shape[0] * sum(params.hidden_dims), dtype=dtype)
    for W, b in layers[:-1]:
        H = np.matmul(H, W, out=block[:n * W.shape[1]].reshape(n, W.shape[1]))
        block = block[H.size:]
        H += b
        acts.append(np.tanh(H, out=H))
    W, b = layers[-1]
    acts.append(H @ W + b)
    return acts


def predict_noise(params, xt, t):
    """Deterministic forward pass over a batch xt of shape (n, d); returns (n, d).

    The time embedding spans params.sched.T steps. The pass runs in the
    dtype of params.theta, and so does the output. The network sees the rows
    in blocks whose hidden activations fit _PREDICT_BLOCK_BYTES, each written
    into the one result, so the working set does not grow with n; a batch
    larger than one block may differ in its last bits from a single pass over
    all rows (the matrix products accumulate per block), never with the BLAS
    thread count.
    """
    X = np.asarray(xt, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.d:
        raise ConfigError(f"expected (n, {params.d}) inputs for the model, got shape {X.shape}")
    n = X.shape[0]
    rows = max(1, _PREDICT_BLOCK_BYTES // (params.theta.itemsize * sum(params.hidden_dims)))
    out = np.empty((n, params.d), dtype=params.theta.dtype)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        out[block] = _forward(params, X[block], t if np.ndim(t) == 0 else t[block])[-1]
    return out


def _backprop(params, acts, dOut, grad):
    """Gradients of a scalar loss, given dLoss/dOutput per row, written into grad.

    dOut, acts and grad have the dtype of params.theta, and so does every matmul.
    """
    layers = layer_views(params, params.theta)
    grads = layer_views(params, grad)
    G = dOut
    for i in range(len(layers) - 1, -1, -1):
        dW, db = grads[i]
        np.matmul(acts[i].T, G, out=dW)
        G.sum(axis=0, out=db)
        if i > 0:
            G = G @ layers[i][0].T
            # acts[i] is post-tanh for hidden layers
            G = G * (1.0 - acts[i] ** 2)
    return grad


def loss_and_grad_arrays(params, X0, ts, EPS, weights, anchor_params=None, kappa=0.0,
                         out=None):
    """Weighted noise-matching loss and its exact gradient.

    X0 and EPS are (B, d), ts and weights (B,); the loss is

        mean_i  w_i * || EPS_i - eps_theta(forward_marginal(X0_i, ts_i, EPS_i), ts_i) ||^2

    with x_t drawn under params.sched, optionally plus kappa * mean_i
    ||eps_theta - eps_anchor||^2 which keeps the prediction close to a frozen
    reference network. The gradient is one vector in the layout and dtype of
    params.theta, written into out when given; the forward passes and
    backprop run in that dtype, and the loss is a Python float.
    """
    B = X0.shape[0]
    XT = forward_marginal(X0, ts, EPS, params.sched)
    acts = _forward(params, XT, ts)
    pred = acts[-1]
    resid = pred - EPS
    loss = float(np.mean(weights * np.sum(resid * resid, axis=1)))
    dOut = (2.0 / B) * weights[:, None] * resid
    if anchor_params is not None and kappa > 0.0:
        pred_pre = _forward(anchor_params, XT, ts)[-1]
        drift = pred - pred_pre
        loss += kappa * float(np.mean(np.sum(drift * drift, axis=1)))
        dOut = dOut + (2.0 * kappa / B) * drift
    grad = np.empty_like(params.theta) if out is None else out
    # the float64 residual promotes dOut; backprop runs in the params' dtype
    return loss, _backprop(params, acts, dOut.astype(params.theta.dtype, copy=False), grad)


def adam_step(params, opt_state, grad):
    """Bias-corrected Adam update of params.theta and the moments, in place.

    m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g, and theta -=
    learning_rate (m / c1) / (sqrt(v / c2) + eps), each evaluated left to
    right (beta1 0.9, beta2 0.999, eps 1e-8). The update runs in the dtype of
    params.theta, which the moments and the gradient share. A non-finite
    gradient raises, with a float64 copy of theta as the checkpoint, before
    anything is changed.
    """
    if not np.all(np.isfinite(grad)):
        raise TrainingDivergenceError("non-finite gradient", checkpoint=float64_copy(params))
    s = opt_state
    s.step_count += 1
    c1 = 1.0 - _BETA1 ** s.step_count
    c2 = 1.0 - _BETA2 ** s.step_count
    a, b = s.scratch
    np.multiply(s.m, _BETA1, out=s.m)
    np.multiply(grad, 1.0 - _BETA1, out=a)
    np.add(s.m, a, out=s.m)
    np.multiply(s.v, _BETA2, out=s.v)
    np.multiply(grad, 1.0 - _BETA2, out=a)
    np.multiply(a, grad, out=a)
    np.add(s.v, a, out=s.v)
    np.divide(s.m, c1, out=a)
    np.multiply(a, s.learning_rate, out=a)
    np.divide(s.v, c2, out=b)
    np.sqrt(b, out=b)
    np.add(b, _EPS, out=b)
    np.divide(a, b, out=a)
    np.subtract(params.theta, a, out=params.theta)


def save_model(path, params):
    """Write the binary model file, a data.write_binary container.

    Payload (all little-endian): u32 d, u32 embed_dim, u32 n_hidden +
    hidden dims, u32 T, f8 beta_start/beta_end (the first and last beta of
    params.sched), u8 stats flag (+ the mean/std vectors of params.stats),
    then theta as f8 (its length follows from the header); a float32 theta
    is widened exactly.
    """
    n, sched, stats = len(params.hidden_dims), params.sched, params.stats
    header = struct.pack(f"<III{n}IIdd", params.d, params.embed_dim, n, *params.hidden_dims,
                         sched.T, sched.betas[1], sched.betas[-1])
    vectors = [params.theta] if stats is None else [stats.mean, stats.std, params.theta]
    write_binary(path, _MAGIC, _FORMAT_VERSION,
                 [header, struct.pack("<B", stats is not None)] +
                 [np.ascontiguousarray(v, dtype="<f8").tobytes() for v in vectors])


def load_model(path):
    """Read a model file; returns its params, with the file's schedule and stats.

    A non-finite weight, normalization mean or std, or beta, a stored
    network shape that config.NetSection rejects or with no design
    coordinate, and a stored schedule that make_schedule rejects raise
    DataError naming the file, even under a valid checksum."""
    r = BinaryReader(path, _MAGIC, _FORMAT_VERSION, "model")
    d, embed_dim = r.unpack("<II")
    (n_hidden,) = r.unpack("<I")
    hidden = r.unpack(f"<{n_hidden}I")
    (T,) = r.unpack("<I")
    beta_start, beta_end = r.unpack("<dd")
    (has_stats,) = r.unpack("<B")
    stats = NormStats(mean=r.array("<f8", d), std=r.array("<f8", d)) if has_stats else None
    theta = r.array("<f8", sum(i * o + o for i, o in _layer_shapes(d, embed_dim, hidden)))
    r.finish()
    checks = [("beta", [beta_start, beta_end]), ("weight", theta)]
    if has_stats:
        checks += [("normalization mean", stats.mean), ("normalization std", stats.std)]
    for name, values in checks:
        if not np.all(np.isfinite(values)):
            raise DataError(f"{path}: non-finite {name} in the model file")
    if d < 1:
        raise DataError(f"{path}: bad network shape in the model file: no design coordinate")
    try:
        NetSection(embed_dim, list(hidden)).check()
    except ConfigError as e:
        raise DataError(f"{path}: bad network shape in the model file: {e}") from None
    try:
        sched = make_schedule(T, beta_start, beta_end)
    except ConfigError as e:
        raise DataError(f"{path}: bad noise schedule in the model file: {e}") from None
    return DenoiserParams(theta=theta, d=d, embed_dim=embed_dim, hidden_dims=hidden,
                          sched=sched, stats=stats)
