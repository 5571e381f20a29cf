"""Reward-weighted maximum-likelihood fine-tuning of a pretrained denoiser.

Each iteration collects m trajectories from a mixed roll-in policy (early
reverse steps from the current model, late steps from the frozen pretrained
model, with the switch point annealed from pure-pretrained at the first
iteration to pure-current at the last), scores the terminal designs with the
black-box reward, and takes one weighted noise-matching pass over the
collected designs with per-sample weights

    w_i proportional to exp(r_i / alpha),  normalized to batch mean 1,

formed by rewards.soft_weight, the soft-value weight SVDD selection uses:
the exponent is shifted by the largest reward, so no weight overflows and a
constant added to every reward changes no weight. Equal rewards give weights
of exactly 1, the unweighted objective. A non-finite reward stops the run
with a NumericalError before any weight is formed.

An optional anchor term kappa * ||eps_theta - eps_pretrained||^2 bounds the
drift away from the pretrained predictions.
"""

import numpy as np

from rddkit.data import denormalize
from rddkit.denoiser import clone_params, init_opt_state
from rddkit.exceptions import NumericalError
from rddkit.pretrain import ddpm_epoch
from rddkit.rewards import soft_weight
from rddkit.sampler import _reverse_chain


def rollin_collect(params_current, params_pre, sched, m, seed, switch_t=0):
    """Terminal designs, (m, d), of m trajectories from the mixed roll-in policy.

    Steps with t > switch_t use the current parameters; steps with
    t <= switch_t use the pretrained ones. switch_t = T reproduces the
    pretrained sampler, switch_t = 0 the current one.
    """
    X0, _, _ = _reverse_chain(
        params_current, sched, m, seed, M=1, params_pre=params_pre, switch_t=switch_t,
    )
    return X0


def _normalized_weights(rewards, alpha):
    w = soft_weight(rewards, alpha)
    return w / w.mean()


def weighted_epoch(designs, rewards, alpha, params, opt_state, sched,
                   rng, batch_size=64, params_pre=None, kappa=0.0):
    """One weighted pass over the collected designs, updating params and opt_state in place.

    designs is the (m, d) array of terminal designs in model coordinates;
    rewards is one real per design (already evaluated on the physical,
    denormalized designs). Returns (mean reward, mean loss).
    """
    X0 = np.asarray(designs, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.shape[0] != X0.shape[0]:
        raise ValueError("one reward per design required")
    weights = _normalized_weights(rewards, alpha)
    mean_loss = ddpm_epoch(
        params, opt_state, X0, sched, rng, batch_size,
        weights=weights, anchor_params=params_pre, kappa=kappa,
    )
    return float(rewards.mean()), mean_loss


def finetune(params_pre, reward, cfg, sched, stats=None):
    """Algorithm: S rounds of roll-in collection plus one weighted pass each.

    cfg is a config.FinetuneSection, checked before any work. Returns
    (fine-tuned params, history) where history rows are dicts with
    iteration, mean_reward and mean_loss. The pretrained parameters are
    never mutated.
    """
    cfg.check()
    params = clone_params(params_pre)
    opt_state = init_opt_state(params, learning_rate=cfg.gamma)
    root = np.random.SeedSequence(cfg.seed)
    history = []
    for s in range(1, cfg.S + 1):
        if cfg.S == 1:
            switch_t = 0
        else:
            switch_t = round(sched.T * (cfg.S - s) / (cfg.S - 1))
        ss_collect, ss_epoch = root.spawn(2)
        X0 = rollin_collect(params, params_pre, sched, cfg.m, ss_collect, switch_t=switch_t)
        phys = denormalize(X0, stats) if stats is not None else X0
        rewards = reward.batch(phys)
        n_bad = np.count_nonzero(~np.isfinite(rewards))
        if n_bad:
            raise NumericalError(f"fine-tuning iteration {s}: {n_bad} of {cfg.m} "
                                 "rewards are non-finite")
        mean_r, mean_loss = weighted_epoch(
            X0, rewards, cfg.alpha, params, opt_state, sched,
            rng=np.random.default_rng(ss_epoch),
            batch_size=cfg.batch_size,
            params_pre=params_pre if cfg.kl_anchor else None,
            kappa=cfg.anchor_kappa if cfg.kl_anchor else 0.0,
        )
        history.append({"iteration": s, "mean_reward": mean_r, "mean_loss": mean_loss})
    return params, history
