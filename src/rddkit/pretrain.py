"""Unguided DDPM training and ancestral sampling.

Training minimizes the standard noise-matching loss: draw a row, a uniform
timestep and a Gaussian noise vector, jump to x_t with the closed-form
marginal, and regress the network output onto the drawn noise. Minibatches
are sampled with replacement; one epoch makes ceil(n / batch) steps.
"""

import logging
import math
import warnings
from dataclasses import replace

import numpy as np

from rddkit.denoiser import (
    clone_params,
    float32_params,
    init_opt_state,
    init_params,
    loss_and_grad_arrays,
    adam_step,
)
from rddkit.exceptions import TrainingDivergenceError
from rddkit.sampler import _reverse_chain

log = logging.getLogger(__name__)


def ddpm_epoch(params, opt_state, X0, sched, rng, batch_size,
               weights=None, anchor_params=None, kappa=0.0):
    """One pass over the data, updating params and opt_state in place; returns the mean loss.

    The same routine backs both pretraining (weights None) and the
    reward-weighted fine-tuning epoch, so a uniform-weight fine-tuning pass
    consumes the identical RNG stream and reproduces pretraining bit for bit.

    Each step is mixed precision: the loss gradient is computed on a float32
    copy of params.theta (and of the anchor, unless it is float32 already),
    then cast to float64 for the Adam update of the float64 master theta and
    moments.
    """
    n, d = X0.shape
    steps = max(1, math.ceil(n / batch_size))
    losses = np.empty(steps)
    params32 = replace(params, theta=np.empty(params.theta.shape, dtype=np.float32))
    if anchor_params is not None:
        anchor_params = float32_params(anchor_params)
    grad32 = np.empty_like(params32.theta)
    grad = np.empty_like(params.theta)
    for k in range(steps):
        idx = rng.integers(0, n, size=batch_size)
        ts = rng.integers(1, sched.T + 1, size=batch_size)
        EPS = rng.standard_normal((batch_size, d))
        w = weights[idx] if weights is not None else np.ones(batch_size)
        np.copyto(params32.theta, params.theta)
        loss, _ = loss_and_grad_arrays(
            params32, X0[idx], ts, EPS, sched, w,
            anchor_params=anchor_params, kappa=kappa, out=grad32,
        )
        if not np.isfinite(loss):
            raise TrainingDivergenceError(
                f"non-finite loss at step {k}", checkpoint=clone_params(params)
            )
        np.copyto(grad, grad32)
        adam_step(params, opt_state, grad)
        losses[k] = loss
    return float(losses.mean())


def train_ddpm(dataset, sched, net, epochs, batch_size, seed, learning_rate=1e-3):
    """Train a denoiser, shaped by the config.NetSection net, on a normalized dataset.

    Returns (params, per-epoch loss history). Zero epochs returns the
    freshly initialized parameters unchanged. The learning rate follows a
    cosine ramp from its initial value down to 1% of it; without the ramp
    the terminal Adam noise leaves a visible mode-mass bias in the samples.
    """
    X0 = np.asarray(dataset.X, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = init_params(X0.shape[1], net, rng)
    opt_state = init_opt_state(params, learning_rate=learning_rate)
    lr_min = learning_rate / 100.0
    history = []
    for epoch in range(epochs):
        ramp = 0.5 * (1.0 + math.cos(math.pi * epoch / epochs))
        opt_state.learning_rate = lr_min + (learning_rate - lr_min) * ramp
        mean_loss = ddpm_epoch(params, opt_state, X0, sched, rng, batch_size)
        history.append(mean_loss)
        log.info("epoch %d/%d loss %.6f", epoch + 1, epochs, mean_loss)
    if history and history[-1] >= history[0] and epochs > 1:
        warnings.warn(
            f"training did not reduce the loss ({history[0]:.4g} -> {history[-1]:.4g})"
        )
    return params, history


def ancestral_sample(params, sched, n, seed):
    """Plain reverse-chain sampling: x_T ~ N(0, I), then T denoising steps.

    Returns an (n, d) array in normalized model coordinates; apply the
    dataset stats to get physical designs. Deterministic per seed.
    """
    if n == 0:
        return np.empty((0, params.d))
    X0, _, _ = _reverse_chain(params, sched, n, seed, M=1)
    return X0
