"""Reward-weighted maximum-likelihood fine-tuning of a pretrained denoiser.

Each iteration collects m trajectories from a mixed roll-in policy (early
reverse steps from the current model, late steps from the frozen pretrained
model, with the switch point annealed from pure-pretrained at the first
iteration to pure-current at the last), scores the terminal designs,
denormalized by the model's stats, with the black-box reward, and takes one
weighted noise-matching pass over the collected designs, which stay in model
coordinates, with per-sample weights

    w_i proportional to exp(r_i / alpha),  normalized to batch mean 1,

formed by rewards.soft_weight, the soft-value weight SVDD selection uses:
the exponent is shifted by the largest reward, so no weight overflows and a
constant added to every reward changes no weight. Equal rewards give weights
of exactly 1, the unweighted objective. A non-finite reward stops the run
with a NumericalError before any weight is formed.

An optional anchor term kappa * ||eps_theta - eps_pretrained||^2 bounds the
drift away from the pretrained predictions. All of it runs under the
schedule the pretrained model carries, which the fine-tuned model keeps.

Fine-tuning runs in float32, as pretraining does: a run makes one float32
copy of the pretrained parameters, which is the roll-in's pretrained policy
and the anchor, and trains a clone of it with float32 Adam moments. That
float32 master is also the roll-in's current policy, so no iteration casts
anything. The chain state, the reverse steps, the RNG streams and the
collected designs stay float64, and the fine-tuned model is returned as the
exact float64 widening of the master.
"""

import numpy as np

from rddkit.data import denormalize
from rddkit.denoiser import clone_params, float32_params, float64_copy, init_opt_state
from rddkit.exceptions import NumericalError
from rddkit.pretrain import ddpm_epoch
from rddkit.rewards import evaluate, soft_weight
from rddkit.sampler import _reverse_chain


def rollin_collect(params_current, params_pre, m, seed, switch_t=0):
    """Terminal designs, (m, d) float64 in model coordinates, of m roll-in trajectories.

    Steps with t > switch_t use the current parameters; steps with
    t <= switch_t the pretrained ones, which must share their schedule.
    switch_t = T reproduces the pretrained sampler, switch_t = 0 the current
    one. Both policies' network passes run in float32, on float32 copies of
    float64 parameters and on float32 parameters as they are; the chain
    runs in float64, so the designs are ancestral sampling's on the float32
    parameters, before denormalization.
    """
    return _reverse_chain(float32_params(params_current), m, seed, M=1,
                          params_pre=float32_params(params_pre), switch_t=switch_t)


def _normalized_weights(rewards, alpha):
    w = soft_weight(rewards, alpha)
    return w / w.mean()


def weighted_epoch(designs, rewards, params, opt_state, rng, cfg, params_pre=None):
    """One weighted pass over the collected designs, updating params and opt_state in place.

    designs is the (m, d) array of terminal designs in model coordinates;
    rewards is one real per design (already evaluated on the physical,
    denormalized designs). cfg is a config.FinetuneSection, checked first:
    its alpha sets the weights and its batch_size the minibatches, and with
    cfg.kl_anchor the frozen params_pre, if given, anchor the predictions
    with weight cfg.anchor_kappa. Returns (mean reward, mean loss).
    """
    cfg.check()
    X0 = np.asarray(designs, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.shape[0] != X0.shape[0]:
        raise ValueError("one reward per design required")
    weights = _normalized_weights(rewards, cfg.alpha)
    mean_loss = ddpm_epoch(
        params, opt_state, X0, rng, cfg.batch_size, weights=weights,
        anchor_params=params_pre if cfg.kl_anchor else None, kappa=cfg.anchor_kappa,
    )
    return float(rewards.mean()), mean_loss


def finetune(params_pre, reward, cfg):
    """Algorithm: S rounds of roll-in collection plus one weighted pass each.

    cfg is a config.FinetuneSection, checked before any work. Returns
    (fine-tuned params, history) where history rows are dicts with
    iteration, mean_reward and mean_loss, and the params are float64: the
    widening of the float32 master, or with S = 0 a copy of params_pre
    unchanged; both keep params_pre's sched and stats. params_pre is never mutated.
    """
    cfg.check()
    if cfg.S == 0:
        return float64_copy(params_pre), []
    pre32 = float32_params(params_pre)   # the roll-in's pretrained policy and the anchor
    params = clone_params(pre32)         # the float32 master
    opt_state = init_opt_state(params, cfg.gamma)
    root = np.random.SeedSequence(cfg.seed)
    history = []
    for s in range(1, cfg.S + 1):
        switch_t = round(params.sched.T * (cfg.S - s) / (cfg.S - 1)) if cfg.S > 1 else 0
        ss_collect, ss_epoch = root.spawn(2)
        X0 = rollin_collect(params, pre32, cfg.m, ss_collect, switch_t=switch_t)
        rewards = evaluate(reward, denormalize(X0, params.stats))
        n_bad = np.count_nonzero(~np.isfinite(rewards))
        if n_bad:
            raise NumericalError(f"fine-tuning iteration {s}: {n_bad} of {cfg.m} "
                                 "rewards are non-finite")
        mean_r, mean_loss = weighted_epoch(X0, rewards, params, opt_state,
                                           np.random.default_rng(ss_epoch), cfg,
                                           params_pre=pre32)
        history.append({"iteration": s, "mean_reward": mean_r, "mean_loss": mean_loss})
    return float64_copy(params), history
