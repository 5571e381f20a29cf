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
one draw (that of t = 1 is never read; it keeps the noise where it was when
the last step still chose), then the (M, d) candidate noise of the steps
t > 1. The noise is drawn in blocks of steps whose buffer fits
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

The chain runs in model coordinates; svdd_generate returns its final states
denormalized, the physical designs, with the rewards scored on exactly those
rows. Rewards are black boxes with one method, batch, called through
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
from rddkit.denoiser import check_same_schedule, float32_params, predict_noise
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


def _select(vals, alpha, u):
    """One categorical draw per row from the soft weights exp(vals/alpha).

    rewards.soft_weight shifts each row by its max, which leaves the
    categorical distribution unchanged and cannot overflow. Non-finite value
    rows fall back to uniform selection.
    """
    vals = np.asarray(vals, dtype=np.float64)
    bad = ~np.all(np.isfinite(vals), axis=1)
    if np.any(bad):
        warnings.warn(f"{int(bad.sum())} candidate row(s) with non-finite values; "
                      "falling back to uniform selection")
        vals = np.where(bad[:, None], 0.0, vals)
    if alpha < GREEDY_THRESHOLD:
        return np.argmax(vals, axis=1)
    w = soft_weight(vals, alpha)
    p = w / w.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    zeta = (cum < u[:, None]).sum(axis=1)
    return np.minimum(zeta, vals.shape[1] - 1)


def _reverse_chain(params, n_traj, seed, *, M=1, reward=None, alpha=1.0,
                   params_pre=None, switch_t=0):
    """Shared engine behind ancestral sampling, guided sampling and roll-in.

    Every chain starts from x_T ~ N(0, I) at t = T. The steps t >= 2 propose
    M candidates and, for M > 1, choose one; the step t = 1 is deterministic,
    its M candidates would be one design, so it is the plain reverse step.
    Returns the (n, d) final states in model coordinates. params_pre, the
    policy of the steps t <= switch_t, must share params.sched.

    The streams are read in the order the module docstring gives; each
    noise block is that trajectory's slice of one (n_traj, K, M, d) buffer.
    Trajectories are advanced in lockstep with batched forward passes and
    one broadcast reverse step per chain step; the RNG draws equal a
    one-trajectory-at-a-time evaluation exactly, the floats up to the
    accumulation order of the batched matrix products.
    """
    d, sched, T = params.d, params.sched, params.sched.T
    if M > 1 and reward is None:
        raise ValueError("candidate selection with M > 1 needs a reward model")
    if params_pre is not None:
        check_same_schedule(params, params_pre, "the pretrained policy")
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

    K = max(1, min(T - 1, NOISE_BLOCK_BYTES // (8 * max(n_traj, 1) * M * d)))
    Z = np.empty((n_traj, K, M, d))
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
            X = cands[rows, zeta]
        else:
            X = cands[:, 0]
    return X


def svdd_generate(params, svdd, reward):
    """Run svdd.n_traj independent guided trajectories.

    Returns (designs, rewards): the (n, d) final designs in physical
    coordinates, the chain's states denormalized by params.stats, and their
    (n,) rewards, scored once, on exactly those rows.

    svdd is a config.SvddSection, checked before any work. Deterministic per
    svdd.seed. With svdd.M = 1 the designs are bit identical to
    ancestral_sample with the same seed.
    """
    svdd.check()
    designs = denormalize(_reverse_chain(params, svdd.n_traj, svdd.seed, M=svdd.M,
                                         reward=reward, alpha=svdd.alpha), params.stats)
    return designs, evaluate(reward, designs)
