"""Noise-prediction network eps_theta(x_t, t) and its training machinery.

A small fully connected network on the concatenation of the noisy design
vector and a sinusoidal time embedding. Gradients are exact reverse
accumulation written out by hand; the parameter update is bias-corrected
Adam. Everything is float64 and deterministic given a seed.
"""

import struct
from dataclasses import dataclass

import numpy as np

from rddkit.diffusion import forward_marginal
from rddkit.exceptions import ConfigError, DataError, TrainingDivergenceError

_MAGIC = b"RDDM"
_FORMAT_VERSION = 1
_ACTIVATIONS = {"tanh": 1}
_ACTIVATION_CODES = {v: k for k, v in _ACTIVATIONS.items()}


@dataclass
class DenoiserParams:
    layer_weights: list
    layer_biases: list
    embed_dim: int
    hidden_dims: tuple
    activation: str = "tanh"

    @property
    def d(self):
        return self.layer_weights[0].shape[0] - self.embed_dim


@dataclass
class OptimizerState:
    m_weights: list
    m_biases: list
    v_weights: list
    v_biases: list
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def time_embedding(t, dim, T):
    """Sinusoidal embedding of the timestep.

    Interleaved sin/cos of t scaled by dim/2 geometrically spaced
    frequencies spanning 1 down to 1/T, so the whole step range 0..T maps
    onto distinct phases. t may be a scalar or an integer array.
    """
    if dim % 2 != 0:
        raise ConfigError(f"embedding dim must be even, got {dim}")
    half = dim // 2
    if half == 1:
        freqs = np.ones(1)
    else:
        freqs = float(max(T, 2)) ** (-np.arange(half) / (half - 1))
    args = np.multiply.outer(np.asarray(t, dtype=np.float64), freqs)
    emb = np.empty(args.shape[:-1] + (dim,), dtype=np.float64)
    emb[..., 0::2] = np.sin(args)
    emb[..., 1::2] = np.cos(args)
    return emb


def init_params(d, net, seed):
    """Fan-in-scaled uniform initialization from a seeded generator.

    net is a config.NetSection; it is checked before any draw.
    """
    net.check()
    rng = np.random.default_rng(seed)
    dims = [d + net.embed_dim] + list(net.hidden_dims) + [d]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return DenoiserParams(
        layer_weights=weights,
        layer_biases=biases,
        embed_dim=net.embed_dim,
        hidden_dims=tuple(net.hidden_dims),
        activation=net.activation,
    )


def clone_params(params):
    return DenoiserParams(
        layer_weights=[w.copy() for w in params.layer_weights],
        layer_biases=[b.copy() for b in params.layer_biases],
        embed_dim=params.embed_dim,
        hidden_dims=params.hidden_dims,
        activation=params.activation,
    )


def init_opt_state(params, learning_rate=1e-3, beta1=0.9, beta2=0.999):
    return OptimizerState(
        m_weights=[np.zeros_like(w) for w in params.layer_weights],
        m_biases=[np.zeros_like(b) for b in params.layer_biases],
        v_weights=[np.zeros_like(w) for w in params.layer_weights],
        v_biases=[np.zeros_like(b) for b in params.layer_biases],
        step_count=0,
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
    )


def _forward(params, X, ts, T):
    """Forward pass keeping post-activation values for backprop.

    X is (n, d); ts a scalar timestep or per-row array. Returns the list of
    layer activations, the first entry being the embedded input.
    """
    emb = time_embedding(ts, params.embed_dim, T)
    if emb.ndim == 1:
        emb = np.broadcast_to(emb, (X.shape[0], params.embed_dim))
    H = np.concatenate([X, emb], axis=1)
    acts = [H]
    n_layers = len(params.layer_weights)
    for i, (W, b) in enumerate(zip(params.layer_weights, params.layer_biases)):
        H = H @ W + b
        if i < n_layers - 1:
            H = np.tanh(H)
        acts.append(H)
    return acts


def predict_noise(params, xt, t, T=None):
    """Deterministic forward pass; output has the design dimension d.

    Accepts a single vector (d,) or a batch (n, d). T defaults to a value
    large enough for the embedding frequencies to be defined; pass the
    schedule's T for consistency with training.
    """
    xt = np.asarray(xt, dtype=np.float64)
    single = xt.ndim == 1
    X = xt[None, :] if single else xt
    if X.shape[1] != params.d:
        raise ConfigError(f"input dim {X.shape[1]} does not match model dim {params.d}")
    if T is None:
        T = int(np.max(t)) if np.ndim(t) else max(int(t), 1)
    out = _forward(params, X, t, T)[-1]
    return out[0] if single else out


def _backprop(params, acts, dOut):
    """Gradients of a scalar loss given dLoss/dOutput for each row."""
    dW = [None] * len(params.layer_weights)
    db = [None] * len(params.layer_biases)
    G = dOut
    n_layers = len(params.layer_weights)
    for i in range(n_layers - 1, -1, -1):
        H_in = acts[i]
        dW[i] = H_in.T @ G
        db[i] = G.sum(axis=0)
        if i > 0:
            G = G @ params.layer_weights[i].T
            # acts[i] is post-tanh for hidden layers
            G = G * (1.0 - acts[i] ** 2)
    return dW, db


def loss_and_grad_arrays(params, X0, ts, EPS, sched, weights, anchor_params=None, kappa=0.0):
    """Weighted noise-matching loss and exact gradients.

    X0 and EPS are (B, d), ts and weights (B,); the loss is

        mean_i  w_i * || EPS_i - eps_theta(forward_marginal(X0_i, ts_i, EPS_i), ts_i) ||^2

    optionally plus kappa * mean_i ||eps_theta - eps_anchor||^2 which keeps
    the prediction close to a frozen reference network.
    """
    B = X0.shape[0]
    XT = forward_marginal(X0, ts, EPS, sched)
    acts = _forward(params, XT, ts, sched.T)
    out = acts[-1]
    resid = out - EPS
    loss = float(np.mean(weights * np.sum(resid * resid, axis=1)))
    dOut = (2.0 / B) * weights[:, None] * resid
    if anchor_params is not None and kappa > 0.0:
        out_pre = _forward(anchor_params, XT, ts, sched.T)[-1]
        drift = out - out_pre
        loss += kappa * float(np.mean(np.sum(drift * drift, axis=1)))
        dOut = dOut + (2.0 * kappa / B) * drift
    dW, db = _backprop(params, acts, dOut)
    return loss, (dW, db)


def adam_step(params, opt_state, grads):
    """Bias-corrected Adam update; returns new params and state."""
    dW, db = grads
    for g in dW + db:
        if not np.all(np.isfinite(g)):
            raise TrainingDivergenceError("non-finite gradient", checkpoint=clone_params(params))
    s = opt_state
    t = s.step_count + 1
    new_params = clone_params(params)
    new_state = OptimizerState(
        m_weights=[], m_biases=[], v_weights=[], v_biases=[],
        step_count=t,
        learning_rate=s.learning_rate, beta1=s.beta1, beta2=s.beta2, eps=s.eps,
    )
    c1 = 1.0 - s.beta1 ** t
    c2 = 1.0 - s.beta2 ** t
    for kind, grad_list in (("weights", dW), ("biases", db)):
        ms = s.m_weights if kind == "weights" else s.m_biases
        vs = s.v_weights if kind == "weights" else s.v_biases
        ps = new_params.layer_weights if kind == "weights" else new_params.layer_biases
        new_m = new_state.m_weights if kind == "weights" else new_state.m_biases
        new_v = new_state.v_weights if kind == "weights" else new_state.v_biases
        for i, g in enumerate(grad_list):
            m = s.beta1 * ms[i] + (1.0 - s.beta1) * g
            v = s.beta2 * vs[i] + (1.0 - s.beta2) * g * g
            ps[i] -= s.learning_rate * (m / c1) / (np.sqrt(v / c2) + s.eps)
            new_m.append(m)
            new_v.append(v)
    return new_params, new_state


def save_model(path, params, T, beta_start, beta_end, stats=None):
    """Write the binary model file.

    Layout (all little-endian): magic "RDDM", u32 version, u32 d, u32
    embed_dim, u32 n_hidden + hidden dims, u32 activation code, u32 T, f8
    beta_start/beta_end, u8 stats flag (+ mean/std vectors), then each
    layer as u32 rows, u32 cols, row-major f8 weights, u32 len, f8 biases.
    """
    d = params.d
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _FORMAT_VERSION))
        f.write(struct.pack("<II", d, params.embed_dim))
        f.write(struct.pack("<I", len(params.hidden_dims)))
        for h in params.hidden_dims:
            f.write(struct.pack("<I", h))
        f.write(struct.pack("<I", _ACTIVATIONS[params.activation]))
        f.write(struct.pack("<I", T))
        f.write(struct.pack("<dd", beta_start, beta_end))
        if stats is not None:
            f.write(struct.pack("<B", 1))
            f.write(np.ascontiguousarray(stats.mean, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(stats.std, dtype="<f8").tobytes())
        else:
            f.write(struct.pack("<B", 0))
        f.write(struct.pack("<I", len(params.layer_weights)))
        for W, b in zip(params.layer_weights, params.layer_biases):
            f.write(struct.pack("<II", W.shape[0], W.shape[1]))
            f.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
            f.write(struct.pack("<I", b.shape[0]))
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path):
    """Read a model file; returns (params, meta dict, stats or None)."""
    from rddkit.data import BinaryReader, NormStats

    r = BinaryReader(path)
    if r.unpack("4s")[0] != _MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    (version,) = r.unpack("<I")
    if version != _FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format version {version}")
    d, embed_dim = r.unpack("<II")
    (n_hidden,) = r.unpack("<I")
    hidden = tuple(r.unpack("<I")[0] for _ in range(n_hidden))
    (act_code,) = r.unpack("<I")
    if act_code not in _ACTIVATION_CODES:
        raise DataError(f"{path}: unknown activation code {act_code}")
    (T,) = r.unpack("<I")
    beta_start, beta_end = r.unpack("<dd")
    (has_stats,) = r.unpack("<B")
    stats = None
    if has_stats:
        mean = r.array("<f8", d)
        std = r.array("<f8", d)
        stats = NormStats(mean=mean, std=std)
    (n_layers,) = r.unpack("<I")
    weights, biases = [], []
    for _ in range(n_layers):
        rows, cols = r.unpack("<II")
        weights.append(r.array("<f8", rows * cols).reshape(rows, cols))
        (blen,) = r.unpack("<I")
        biases.append(r.array("<f8", blen))
    r.finish()
    params = DenoiserParams(
        layer_weights=weights,
        layer_biases=biases,
        embed_dim=embed_dim,
        hidden_dims=hidden,
        activation=_ACTIVATION_CODES[act_code],
    )
    if params.d != d:
        raise DataError(f"{path}: layer shapes inconsistent with header dim {d}")
    meta = {"T": T, "beta_start": beta_start, "beta_end": beta_end}
    return params, meta, stats
