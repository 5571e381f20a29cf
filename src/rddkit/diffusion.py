"""Forward and reverse diffusion kernels on design vectors.

Forward process (variance schedule beta_1..beta_T):

    q(x_t | x_{t-1}) = N(sqrt(alpha_t) * x_{t-1}, beta_t * I),  alpha_t = 1 - beta_t

which composes into the closed-form marginal

    x_t = sqrt(abar_t) * x_0 + sqrt(1 - abar_t) * eps,  abar_t = prod_{s<=t} alpha_s

with the convention abar_0 = 1. The learned reverse step is

    x_{t-1} = (x_t - beta_t / sqrt(1 - abar_t) * eps_pred) / sqrt(alpha_t) + sigma_t * z

with sigma_t = sqrt(beta_t) for t > 1 and sigma_1 = 0, so the final step is
deterministic. All arithmetic is double precision; RNG draws happen in the
caller and are passed in explicitly.
"""

from dataclasses import dataclass

import numpy as np

from rddkit.config import ScheduleSection
from rddkit.exceptions import NumericalError

# posterior_mean_x0 divides by sqrt(abar_t); below this the estimate is garbage
ALPHA_BAR_FLOOR = 1e-12


@dataclass
class NoiseSchedule:
    """The beta_start and beta_end make_schedule was given (at T = 1 betas[1]
    is beta_start), and schedule tables indexed directly by timestep t in 1..T.

    Index 0 holds the t=0 convention entries (beta=0, alpha=1, abar=1,
    sigma=0) so that ``alpha_bars[t]`` works for t=0 too.
    """

    T: int
    beta_start: float
    beta_end: float
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray
    sigmas: np.ndarray


def make_schedule(T, beta_start=ScheduleSection.beta_start, beta_end=ScheduleSection.beta_end):
    """Build a linear beta schedule and its derived alpha tables.

    The arguments are the fields of a config.ScheduleSection, and its
    check() is their validation.
    """
    ScheduleSection(T, beta_start, beta_end).check()
    betas = np.concatenate([[0.0], np.linspace(beta_start, beta_end, T, dtype=np.float64)])
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    sigmas = np.sqrt(betas)
    sigmas[1] = 0.0
    return NoiseSchedule(T, float(beta_start), float(beta_end), betas, alphas, alpha_bars, sigmas)


def _check_t(t, T):
    t_arr = np.asarray(t)
    if np.any(t_arr < 1) or np.any(t_arr > T):
        raise IndexError(f"timestep {t} outside 1..{T}")


def forward_marginal(x0, t, eps, sched):
    """Jump straight to timestep t: sqrt(abar_t)*x0 + sqrt(1-abar_t)*eps.

    x0 and eps may be single vectors (d,) or batches (n, d); t may be a
    scalar or a per-row integer array.
    """
    _check_t(t, sched.T)
    abar = sched.alpha_bars[t]
    if np.ndim(abar) > 0:
        abar = abar[:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def reverse_step(xt, t, eps_pred, sched, z):
    """One learned denoising step from x_t to x_{t-1}.

    z is a standard normal draw from the caller; it is ignored at t=1
    because sigma_1 = 0.
    """
    _check_t(t, sched.T)
    beta = sched.betas[t]
    alpha = sched.alphas[t]
    abar = sched.alpha_bars[t]
    mean = (xt - beta / np.sqrt(1.0 - abar) * eps_pred) / np.sqrt(alpha)
    if t == 1:
        return mean
    return mean + sched.sigmas[t] * z


def posterior_mean_x0(xt, t, eps_pred, sched):
    """Posterior-mean estimate of the clean design from a noisy state.

        x0_hat = (x_t - sqrt(1 - abar_t) * eps_pred) / sqrt(abar_t)

    This inverts the closed-form marginal exactly when eps_pred equals the
    noise that produced x_t.
    """
    _check_t(t, sched.T)
    abar = sched.alpha_bars[t]
    if np.min(abar) < ALPHA_BAR_FLOOR:
        raise NumericalError(
            f"alpha_bar[{t}] = {np.min(abar):.3e} below {ALPHA_BAR_FLOOR:g}; "
            "schedule too aggressive for the posterior-mean estimator"
        )
    if np.ndim(abar) > 0:
        abar = np.asarray(abar)[:, None]
    return (xt - np.sqrt(1.0 - abar) * eps_pred) / np.sqrt(abar)
