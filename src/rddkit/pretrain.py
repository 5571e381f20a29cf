"""Unguided DDPM training, and ancestral sampling to physical designs.

Training minimizes the standard noise-matching loss: draw a row, a uniform
timestep and a Gaussian noise vector, jump to x_t with the closed-form
marginal of the schedule the model carries (params.sched, set by
train_ddpm), and regress the network output onto the drawn noise.
Minibatches are sampled with replacement; one epoch makes ceil(n / batch) steps.

Training runs in float32 (mixed precision after Micikevicius et al. 2018,
with the master weights in float32 too): the float64 initialization is cast
once, the forward pass, backprop and Adam work on that float32 master and
float32 moments, and the trained model is returned as the exact float64
widening of the master.
"""

import logging
import math

import numpy as np

from rddkit.data import denormalize
from rddkit.denoiser import (
    check_same_schedule,
    float32_params,
    float64_copy,
    init_opt_state,
    init_params,
    loss_and_grad_arrays,
    adam_step,
)
from rddkit.exceptions import TrainingDivergenceError
from rddkit.sampler import _reverse_chain

log = logging.getLogger(__name__)


def ddpm_epoch(params, opt_state, X0, rng, batch_size,
               weights=None, anchor_params=None, kappa=0.0):
    """One pass over the data, updating params and opt_state in place; returns the mean loss.

    The same routine backs both pretraining (weights None) and the
    reward-weighted fine-tuning epoch, so a uniform-weight fine-tuning pass
    consumes the identical RNG stream and reproduces pretraining bit for bit.

    Each step runs the loss gradient and the Adam update in the dtype of
    params.theta, which opt_state shares: float32 for train_ddpm and
    finetune. A divergence's checkpoint is a float64 copy of params. An
    anchor under another schedule than params.sched raises ConfigError.
    """
    if anchor_params is not None:
        check_same_schedule(params, anchor_params, "the anchor")
    n, d = X0.shape
    steps = max(1, math.ceil(n / batch_size))
    losses = np.empty(steps)
    grad = np.empty_like(params.theta)
    for k in range(steps):
        idx = rng.integers(0, n, size=batch_size)
        ts = rng.integers(1, params.sched.T + 1, size=batch_size)
        EPS = rng.standard_normal((batch_size, d))
        w = weights[idx] if weights is not None else np.ones(batch_size)
        loss, _ = loss_and_grad_arrays(
            params, X0[idx], ts, EPS, w,
            anchor_params=anchor_params, kappa=kappa, out=grad,
        )
        if not np.isfinite(loss):
            raise TrainingDivergenceError(
                f"non-finite loss at step {k}", checkpoint=float64_copy(params)
            )
        adam_step(params, opt_state, grad)
        losses[k] = loss
    return float(losses.mean())


def train_ddpm(dataset, sched, net, pretrain):
    """Train a denoiser, shaped by the config.NetSection net, on a normalized dataset.

    pretrain is a config.PretrainSection, checked before any work. Returns
    (params, per-epoch loss history), params float64 and carrying sched: the
    widening of the float32 master that was trained, or with zero epochs the
    freshly initialized parameters unchanged. The learning rate follows a
    cosine ramp from its initial value down to 1% of it; without the ramp
    the terminal Adam noise leaves a visible mode-mass bias in the samples.
    """
    pretrain.check()
    epochs, lr = pretrain.epochs, pretrain.learning_rate
    X0 = np.asarray(dataset.X, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(pretrain.seed))
    init = init_params(X0.shape[1], net, sched, rng)
    if epochs == 0:
        return init, []
    params = float32_params(init)
    opt_state = init_opt_state(params, lr)
    lr_min = lr / 100.0
    history = []
    for epoch in range(epochs):
        ramp = 0.5 * (1.0 + math.cos(math.pi * epoch / epochs))
        opt_state.learning_rate = lr_min + (lr - lr_min) * ramp
        mean_loss = ddpm_epoch(params, opt_state, X0, rng, pretrain.batch_size)
        history.append(mean_loss)
        log.info("epoch %d/%d loss %.6f", epoch + 1, epochs, mean_loss)
    return float64_copy(params), history


def ancestral_sample(params, n, seed):
    """Plain reverse-chain sampling: x_T ~ N(0, I), then the T steps of params.sched.

    Returns the (n, d) physical designs, the chain's final states
    denormalized by params.stats. Deterministic per seed.
    """
    return denormalize(_reverse_chain(params, n, seed, M=1), params.stats)
