"""Reward-directed importance sampling over the reverse diffusion chain.

At every reverse step t >= 2, M candidate states are proposed from the
current denoising kernel (shared x_t, independent Gaussian draws). Each
candidate is scored by the soft value estimate

    v_hat_{t-1}(x) = r(denormalize(x0_hat(x, t-1)))

where x0_hat is the posterior-mean estimate of the clean design and
denormalize applies the model's own params.stats, as the chain runs under
its own params.sched; one candidate is kept by a single categorical draw
with probabilities proportional to exp(v_hat / alpha). The last step, t = 1,
is deterministic (sigma_1 = 0): its M candidates would be one design, so it
chooses nothing and is the plain reverse step. With M = 1 the procedure
degenerates to plain ancestral sampling, bit for bit.

Each trajectory owns an RNG stream spawned from the root seed, read in this
order: x_T, then for M > 1 one selection uniform per step, T of them in
one draw (that of t = 1 is never read), then the candidate noise of the
steps t > 1. The noise is drawn in blocks of steps whose buffer fits
NOISE_BLOCK_BYTES; a stream of normals yields the same values however it is
split, so no draw depends on the block size, nor, the streams being per
trajectory, on the number of trajectories run together.

Soft values only rank candidates, so the denoiser pass that scores them
runs in float32, on a float32 copy of each policy's parameters made once per
guided chain (float32 parameters are used as they are; M = 1 makes none);
x0_hat, the reward and the selection stay float64, as do the candidate
states and everything the chain carries. That pass is nine tenths of the
network rows of a guided run with M = 10. The current-state pass runs in the
dtype of the parameters the chain is given: float64 for sampling, float32
for the fine-tuning roll-in, whose float32 noise prediction enters the
float64 reverse step. predict_noise runs every pass in row blocks of bounded
size, so the network's working set does not grow with n x M; the n x M
candidate rows of one step are still one predict_noise call and one reward
call.

Rewards are black boxes with one method, batch, called through
rewards.evaluate, which checks for one reward per row: each guided step
t >= 2 scores its n x M candidates in one call, and the n final designs take
one more, T calls in all. Only evaluation is ever requested, never a
gradient. Results do not depend on execution order, and the output of a
seed is byte-identical whatever the BLAS thread count.
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


def _candidate_values(params, reward, cands, t_next):
    """Float64 soft values of (n, M, d) candidate states that live at timestep t_next.

    The noise prediction runs in the dtype of params, float32 as the chain
    passes each policy's float32 copy; x0_hat is formed from the float64
    states and scored denormalized by params.stats.
    """
    n, M, d = cands.shape
    flat = cands.reshape(n * M, d)
    eps_hat = predict_noise(params, flat, t_next)
    x0_hat = posterior_mean_x0(flat, t_next, eps_hat.astype(np.float64), params.sched)
    return evaluate(reward, denormalize(x0_hat, params.stats)).reshape(n, M)


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
        values = np.where(bad[:, None], 0.0, values)
    if alpha < GREEDY_THRESHOLD:
        return np.argmax(values, axis=1)
    w = soft_weight(values, alpha)
    p = w / w.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    zeta = (cum < u[:, None]).sum(axis=1)
    return np.minimum(zeta, values.shape[1] - 1)


def _reverse_chain(params, n_traj, seed, *, M=1, reward=None, alpha=1.0,
                   params_pre=None, switch_t=0, record_values=False):
    """Shared engine behind ancestral sampling, guided sampling and roll-in.

    Every chain starts from x_T ~ N(0, I) at t = T. The steps t >= 2 propose
    M candidates and, for M > 1, choose one; the step t = 1 is deterministic,
    its M candidates would be one design, so it is the plain reverse step.
    Returns (X0, zetas, values): the (n, d) final states, the (n, T-1)
    1-based chosen index of each step t >= 2, and with record_values and
    M > 1 their (n, T-1, M) soft values, else None.

    Per-trajectory stream consumption, in order: the x_T draw, then for
    M > 1 T selection uniforms in a single draw, then the (M, d) candidate
    noise of each step t > 1. The uniform of t = 1 is drawn and never read:
    it keeps the noise at its place in the stream, so a seed gives the
    guided designs it gave when the last step still chose. The noise is drawn K steps at a time into
    that trajectory's slice of one (n_traj, K, M, d) buffer, K set by
    NOISE_BLOCK_BYTES; since only normals follow, the values do not depend
    on K. Trajectories are advanced in lockstep with batched forward passes
    and one broadcast reverse step per chain step; the RNG draws equal a
    one-trajectory-at-a-time evaluation exactly, the floats up to the
    accumulation order of the batched matrix products.
    """
    d, sched, T = params.d, params.sched, params.sched.T
    if M > 1 and reward is None:
        raise ValueError("candidate selection with M > 1 needs a reward model")
    # the candidate passes' float32 parameters of each policy, cast once per
    # chain; M = 1 has no candidate pass and casts nothing
    params32 = pre32 = None
    if M > 1:
        params32 = float32_params(params)
        pre32 = float32_params(params_pre) if params_pre is not None else None
    rngs = _spawn_generators(seed, n_traj)
    X = np.empty((n_traj, d))
    U = np.empty((n_traj, T)) if M > 1 else None
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=X[i])
        if M > 1:
            rng.random(out=U[i])

    K = max(1, min(T - 1, NOISE_BLOCK_BYTES // (8 * n_traj * M * d)))
    Z = np.empty((n_traj, K, M, d))
    zetas = np.ones((n_traj, T - 1), dtype=np.int64)
    values = np.empty((n_traj, T - 1, M)) if record_values and M > 1 else None
    rows = np.arange(n_traj)

    for k, t in enumerate(range(T, 0, -1)):
        pre = params_pre is not None and t <= switch_t
        p_t, p32_t = (params_pre, pre32) if pre else (params, params32)
        eps = predict_noise(p_t, X, t)
        if t == 1:
            X = reverse_step(X, 1, eps, sched, None)
            break
        j = k % K
        if j == 0:
            for rng, block in zip(rngs, Z):
                rng.standard_normal(out=block[:min(K, T - 1 - k)])
        cands = reverse_step(X[:, None], t, eps[:, None], sched, Z[:, j])
        if M > 1:
            vals = _candidate_values(p32_t, reward, cands, t - 1)
            zeta = _select(vals, alpha, U[:, k])
            zetas[:, k] = zeta + 1
            if record_values:
                values[:, k] = vals
            X = cands[rows, zeta]
        else:
            X = cands[:, 0]
    return X, zetas, values


def svdd_generate(params, svdd, reward, record_values=False):
    """Run svdd.n_traj independent guided trajectories.

    Returns (X0, rewards, zetas, values): the (n, d) final designs in model
    coordinates, as ancestral_sample returns them; their (n,) rewards,
    scored once, on the designs denormalized by params.stats; the (n, T-1)
    chosen candidate index of each step t >= 2, 1-based (all 1 for M = 1);
    and, only with record_values and svdd.M > 1, the (n, T-1, M) candidate
    soft values, else None. The deterministic last step chooses nothing.

    svdd is a config.SvddSection, checked before any work. Deterministic per
    svdd.seed. With svdd.M = 1 the final designs are bit identical to
    ancestral sampling with the same seed.
    """
    svdd.check()
    X0, zetas, values = _reverse_chain(
        params, svdd.n_traj, svdd.seed,
        M=svdd.M, reward=reward, alpha=svdd.alpha, record_values=record_values,
    )
    return X0, evaluate(reward, denormalize(X0, params.stats)), zetas, values
