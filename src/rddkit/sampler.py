"""Reward-directed importance sampling over the reverse diffusion chain.

At every reverse step, M candidate states are proposed from the current
denoising kernel (shared x_t, independent Gaussian draws). Each candidate is
scored by the soft value estimate

    v_hat_{t-1}(x) = r(denormalize(x0_hat(x, t-1)))

where x0_hat is the posterior-mean estimate of the clean design, and one
candidate is kept by a single categorical draw with probabilities
proportional to exp(v_hat / alpha). With M = 1 the procedure degenerates to
plain ancestral sampling, bit for bit.

Each trajectory owns an RNG stream spawned from the root seed, read in this
order: x_T (unless the chain starts from given states), then for M > 1 the
selection uniforms of every step in one draw, then the candidate noise of
the steps t > 1. The noise is drawn in blocks of steps whose buffer fits
NOISE_BLOCK_BYTES; a stream of normals yields the same values however it is
split, so no draw depends on the block size, nor, the streams being per
trajectory, on the number of trajectories run together.

Soft values only rank candidates, so the denoiser pass that scores them
runs in float32, on a float32 copy of each policy's parameters made once per
chain (float32 parameters are used as they are); x0_hat, the reward and
the selection stay float64, as do the candidate states and everything the
chain carries. That pass is nine tenths of the network rows of a guided run
with M = 10. The current-state pass runs in the dtype of the parameters the
chain is given: float64 for sampling, float32 for the fine-tuning roll-in,
whose float32 noise prediction enters the float64 reverse step.

Rewards are black boxes with one method, batch, called through
rewards.evaluate, which checks for one reward per row: a guided step scores
its n x M candidates in one call, and the n final designs take one more. Only
evaluation is ever requested, never a gradient. Results do not depend on
execution order, and the output of a seed is byte-identical whatever the
BLAS thread count.
"""

import warnings

import numpy as np

from rddkit.data import denormalize
from rddkit.diffusion import posterior_mean_x0, reverse_step
from rddkit.denoiser import float32_params, predict_noise
from rddkit.rewards import evaluate, soft_weight

# selection temperatures below this pick the best candidate deterministically
GREEDY_THRESHOLD = 1e-9

# size of the candidate-noise buffer, (n_traj, K, M, d) float64: K steps are
# drawn per RNG call, and K = 1 when one step's noise alone is larger
NOISE_BLOCK_BYTES = 256 * 1024


def _spawn_generators(seed, n):
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


def _candidate_values(params, sched, reward, stats, cands, t_next):
    """Float64 soft values of (n, M, d) candidate states that live at timestep t_next.

    The noise prediction runs in the dtype of params, float32 as the chain
    passes each policy's float32 copy; x0_hat is formed from the float64
    states.
    """
    n, M, d = cands.shape
    flat = cands.reshape(n * M, d)
    if t_next == 0:
        x0_hat = flat
    else:
        eps_hat = predict_noise(params, flat, t_next, sched.T)
        x0_hat = posterior_mean_x0(flat, t_next, eps_hat.astype(np.float64), sched)
    phys = denormalize(x0_hat, stats) if stats is not None else x0_hat
    return evaluate(reward, phys).reshape(n, M)


def _select(values, alpha, u):
    """One categorical draw per row from the soft weights exp(values/alpha).

    rewards.soft_weight shifts each row by its max, which leaves the
    categorical distribution unchanged and cannot overflow. Non-finite value
    rows fall back to uniform selection.
    """
    values = np.asarray(values, dtype=np.float64)
    bad = ~np.all(np.isfinite(values), axis=1)
    if np.any(bad):
        warnings.warn(f"{int(bad.sum())} candidate row(s) with non-finite values; "
                      "falling back to uniform selection")
        values = np.where(np.isfinite(values), values, -np.inf)
        values[bad] = 0.0
    if alpha < GREEDY_THRESHOLD:
        return np.argmax(values, axis=1)
    w = soft_weight(values, alpha)
    p = w / w.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    zeta = (cum < u[:, None]).sum(axis=1)
    return np.minimum(zeta, values.shape[1] - 1)


def _reverse_chain(params, sched, n_traj, seed, *, M=1, reward=None, stats=None,
                   alpha=1.0, params_pre=None, switch_t=0,
                   x_start=None, t_start=None, record_values=False):
    """Shared engine behind ancestral sampling, guided sampling and roll-in.

    Per-trajectory stream consumption, in order: the x_T draw (skipped when
    x_start is given), then for M > 1 one uniform per step in a single
    draw, then the (M, d) candidate noise of each step t > 1. The noise is
    drawn K steps at a time into that trajectory's slice of one
    (n_traj, K, M, d) buffer, K set by NOISE_BLOCK_BYTES; since only normals
    follow, the values do not depend on K. Trajectories are advanced in
    lockstep with batched forward passes and one broadcast reverse step per
    chain step; the RNG draws equal a one-trajectory-at-a-time evaluation
    exactly, the floats up to the accumulation order of the batched matrix
    products.
    """
    d = params.d
    if M > 1 and reward is None:
        raise ValueError("candidate selection with M > 1 needs a reward model")
    # the candidate passes' float32 parameters of each policy, cast once per chain
    params32 = float32_params(params)
    pre32 = float32_params(params_pre) if params_pre is not None else None
    rngs = _spawn_generators(seed, n_traj)
    if x_start is not None:
        X = np.array(x_start, dtype=np.float64, copy=True)
        if X.ndim == 1:
            X = np.tile(X, (n_traj, 1))
        if X.shape != (n_traj, d):
            raise ValueError(f"x_start must have shape ({n_traj}, {d})")
        t_hi = int(t_start)
    else:
        X = np.empty((n_traj, d))
        t_hi = sched.T
    if t_hi < 1 or t_hi > sched.T:
        raise IndexError(f"start timestep {t_hi} outside 1..{sched.T}")
    U = np.empty((n_traj, t_hi)) if M > 1 else None
    for i, rng in enumerate(rngs):
        if x_start is None:
            rng.standard_normal(out=X[i])
        if M > 1:
            rng.random(out=U[i])

    n_noisy = t_hi - 1    # steps t > 1 take candidate noise
    K = max(1, min(n_noisy, NOISE_BLOCK_BYTES // (8 * n_traj * M * d)))
    Z = np.empty((n_traj, K, M, d))
    zetas = np.ones((n_traj, t_hi), dtype=np.int64)
    values = np.empty((n_traj, t_hi, M)) if record_values else None
    rows = np.arange(n_traj)

    for k, t in enumerate(range(t_hi, 0, -1)):
        pre = params_pre is not None and t <= switch_t
        p_t, p32_t = (params_pre, pre32) if pre else (params, params32)
        eps = predict_noise(p_t, X, t, sched.T)
        z = None
        if t > 1:
            j = k % K
            if j == 0:
                for rng, block in zip(rngs, Z):
                    rng.standard_normal(out=block[:min(K, n_noisy - k)])
            z = Z[:, j]
        # (n, M, d) candidates; at t = 1 the step is deterministic and all M coincide
        cands = np.broadcast_to(reverse_step(X[:, None], t, eps[:, None], sched, z),
                                (n_traj, M, d))
        if M > 1:
            vals = _candidate_values(p32_t, sched, reward, stats, cands, t - 1)
            zeta = _select(vals, alpha, U[:, k])
            if record_values:
                values[:, k] = vals
        else:
            zeta = np.zeros(n_traj, dtype=np.int64)
            if record_values and reward is not None:
                values[:, k] = _candidate_values(p32_t, sched, reward, stats, cands, t - 1)
        X = cands[rows, zeta]
        zetas[:, k] = zeta + 1
    return X, zetas, values


def svdd_generate(params, sched, svdd, reward, stats=None, record_values=False):
    """Run svdd.n_traj independent guided trajectories.

    Returns (X0, rewards, zetas, values): the (n, d) final designs in model
    coordinates, as ancestral_sample returns them; their (n,) rewards,
    scored on the denormalized designs; the (n, T) chosen candidate index
    per step, 1-based; and, only with record_values, the (n, T, M)
    candidate soft values, else None.

    svdd is a config.SvddSection, checked before any work. Deterministic per
    svdd.seed. With svdd.M = 1 the final designs are bit identical to
    ancestral sampling with the same seed.
    """
    svdd.check()
    X0, zetas, values = _reverse_chain(
        params, sched, svdd.n_traj, svdd.seed,
        M=svdd.M, reward=reward, stats=stats, alpha=svdd.alpha,
        record_values=record_values,
    )
    phys = denormalize(X0, stats) if stats is not None else X0
    return X0, evaluate(reward, phys), zetas, values
