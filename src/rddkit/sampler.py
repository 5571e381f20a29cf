"""Reward-directed importance sampling over the reverse diffusion chain.

A chain follows a step plan built once, before its first draw: for each
t = T..1, the policy of the current-state pass (params_pre where
t <= switch_t, else params) and the scorer of the step's candidates, bound
to that policy's float32 copy, or None where the step keeps its one
candidate: every step when M = 1, and t = 1, whose sigma is 0. Each step proposes M
candidates from the policy's denoising kernel (shared x_t, independent
Gaussian draws); a step with a scorer scores them by the soft value estimate

    v_hat_{t-1}(x) = r(denormalize(x0_hat(x, t-1)))

where x0_hat is the posterior-mean estimate of the clean design and
denormalize applies the model's own params.stats, as the chain runs under
its own params.sched, and keeps one by a single categorical draw with
probabilities proportional to exp(v_hat / alpha). With M = 1 the procedure
degenerates to plain ancestral sampling, bit for bit.

Each trajectory owns an RNG stream spawned from the root seed, read in this
order: x_T, then for M > 1 one selection uniform per step, T of them in
one draw (that of t = 1 is never read; it keeps the noise where it was when
the last step still chose), then the (M, d) candidate noise of the steps
t > 1. The noise is drawn in blocks of steps whose buffer fits
NOISE_BLOCK_BYTES; a stream of normals yields the same values however it is
split, so no draw depends on the block size, nor, the streams being per
trajectory, on the number of trajectories run together.

The plan's scorer follows from the input: the M candidates of a trajectory
share one mean mu, the reverse step's mean from x_t, and differ only by
sigma_t z_j. When d + 1 < M, one value-and-Jacobian pass at (mu, t-1) gives
eps0 and the input Jacobian J (denoiser.noise_and_jacobian, d forward-mode
tangents), and candidate j's noise prediction is the first-order expansion
eps0 + sigma_t z_j @ J, formed in float64: n x (1 + d) network rows a step.
Otherwise every candidate gets its own pass, n x M rows a step. Either way
x0_hat is formed at the candidate's own position and time t-1.

Soft values only rank candidates, so the denoiser pass that scores them
runs in float32, on the plan's float32 copy of each policy, made once per
guided chain (float32 parameters are used as they are; M = 1 makes none);
x0_hat, the reward and the selection stay float64, as do the candidate
states and everything the chain carries. With M = 10 candidates of d = 2
coordinates, a pass over every candidate would be nine tenths of the
network rows of a guided run. The current-state pass runs in the
dtype of the parameters the chain is given: float64 for sampling, float32
for the fine-tuning roll-in, whose float32 noise prediction enters the
float64 reverse step. Every network pass runs in row blocks of bounded
size, so the network's working set does not grow with n x M; the
candidates of one step are still one network call and one reward call.

The chain runs in model coordinates; svdd_generate returns its final states
denormalized, the physical designs, with the rewards scored on exactly those
rows. Rewards are black boxes with one method, batch, called through
rewards.evaluate, which checks for one reward per row: each guided step
t >= 2 scores its n x M candidates in one call, and the n final designs take
one more, T calls in all. Only evaluation is ever requested, never a
gradient. Results do not depend on execution order, and the output of a
seed is byte-identical whatever the BLAS thread count.
"""

import functools
import warnings

import numpy as np

from rddkit.data import denormalize
from rddkit.diffusion import posterior_mean_x0, reverse_step
from rddkit.denoiser import (
    check_same_schedule,
    float32_params,
    noise_and_jacobian,
    predict_noise,
)
from rddkit.rewards import evaluate, soft_weight

# selection temperatures below this pick the best candidate deterministically
GREEDY_THRESHOLD = 1e-9

# size of the candidate-noise buffer, (n_traj, K, M, d) float64: K steps are
# drawn per RNG call, and K = 1 when one step's noise alone is larger
NOISE_BLOCK_BYTES = 256 * 1024


def _spawn_generators(seed, n):
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


def _candidate_values(params, reward, cands, t_next, eps_hat=None):
    """Float64 soft values of (n, M, d) candidate states that live at timestep t_next.

    eps_hat, the candidates' (n, M, d) noise predictions, defaults to a
    network pass over every candidate in the dtype of params, float32 as the
    chain passes each policy's float32 copy; x0_hat is formed from the
    float64 states and scored denormalized by params.stats.
    """
    n, M, d = cands.shape
    flat = cands.reshape(n * M, d)
    eps_hat = predict_noise(params, flat, t_next) if eps_hat is None else eps_hat
    x0_hat = posterior_mean_x0(flat, t_next,
                               eps_hat.reshape(n * M, d).astype(np.float64, copy=False),
                               params.sched)
    return evaluate(reward, denormalize(x0_hat, params.stats)).reshape(n, M)


def _own_pass_values(scorer, reward, X, eps, t, z, cands):
    """The scorer that runs the network on every candidate: n x M rows a step."""
    return _candidate_values(scorer, reward, cands, t - 1)


def _first_order_values(scorer, reward, X, eps, t, z, cands):
    """The scorer that expands the network to first order about the candidates'
    shared mean: n x (1 + d) rows a step.

    The candidates of a trajectory are mu + sigma_t z_j, mu the reverse step's
    mean (its step with z = 0); one pass at (mu, t - 1) gives eps0 and the
    Jacobian J, and candidate j's noise prediction is eps0 + sigma_t z_j @ J,
    formed in float64.
    """
    sched = scorer.sched
    mu = reverse_step(X, t, eps, sched, 0.0)
    eps0, J = noise_and_jacobian(scorer, mu, t - 1)
    eps_hat = eps0[:, None].astype(np.float64) + sched.sigmas[t] * (z @ J.astype(np.float64))
    return _candidate_values(scorer, reward, cands, t - 1, eps_hat)


def _select(vals, alpha, u):
    """One categorical draw per row from the soft weights exp(vals/alpha).

    rewards.soft_weight shifts each row by its max, which leaves the
    categorical distribution unchanged and cannot overflow. Below
    GREEDY_THRESHOLD a row takes its best candidate. Non-finite value rows
    fall back to uniform selection, the same pick from u at any alpha.
    """
    vals = np.asarray(vals, dtype=np.float64)
    bad = ~np.all(np.isfinite(vals), axis=1)
    if np.any(bad):
        warnings.warn(f"{int(bad.sum())} candidate row(s) with non-finite values; "
                      "falling back to uniform selection")
        vals = np.where(bad[:, None], 0.0, vals)
    greedy = alpha < GREEDY_THRESHOLD
    # a bad row, all zeros now, has uniform weights at any temperature
    w = soft_weight(vals, 1.0 if greedy else alpha)
    p = w / w.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    zeta = np.minimum((cum < u[:, None]).sum(axis=1), vals.shape[1] - 1)
    return np.where(greedy & ~bad, np.argmax(vals, axis=1), zeta)


def _reverse_chain(params, n_traj, seed, *, M=1, reward=None, alpha=1.0,
                   params_pre=None, switch_t=0):
    """Shared engine behind ancestral sampling, guided sampling and roll-in.

    Every chain starts from x_T ~ N(0, I) at t = T and runs its step plan,
    the module docstring's (t, policy, scorer) entries for t = T..1; the
    loop reads nothing else. params_pre must share params.sched. Returns
    the (n, d) final states in model coordinates.

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
    # the step plan: each policy with its scorer, bound once per chain to the
    # policy's float32 copy (M = 1 casts nothing), and no scorer for t = 1
    score = _first_order_values if d + 1 < M else _own_pass_values
    pairs = [(p, functools.partial(score, float32_params(p), reward) if M > 1 else None)
             for p in (params, params_pre) if p is not None]
    plan = [(t, policy, scorer if t > 1 else None) for t in range(T, 0, -1)
            for policy, scorer in [pairs[len(pairs) > 1 and t <= switch_t]]]
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
    for k, (t, policy, scorer) in enumerate(plan):
        eps = predict_noise(policy, X, t)
        if k % K == 0:   # the noise of the steps t >= 2 only
            for rng, block in zip(rngs, Z):
                rng.standard_normal(out=block[:min(K, T - 1 - k)])
        # reverse_step ignores z at t = 1, which draws no noise of its own
        cands = reverse_step(X[:, None], t, eps[:, None], sched, Z[:, k % K])
        if scorer is None:
            X = cands[:, 0]
        else:
            vals = scorer(X, eps, t, Z[:, k % K], cands)
            X = cands[rows, _select(vals, alpha, U[:, k])]
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
