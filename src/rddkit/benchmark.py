"""Synthetic desk-scale benchmark: a 2-D Gaussian mixture with a reward
target placed outside the training support, plus the random hull-parameter
dataset used to exercise the resistance surrogate.

The mixture has two equally weighted modes; the reward is the negative
squared distance to TARGET, which sits beyond the right mode, so guided
samplers must leave the training distribution to score well.
"""

import numpy as np

from rddkit.data import Dataset
from rddkit.hull import N_PARAMS, aggregate_resistances

MIXTURE_MODES = np.array([[-1.0, 0.0], [1.0, 0.0]])
MIXTURE_STD = 0.35
SYNTHETIC_TARGET = np.array([3.0, 0.0])

# sensible sub-ranges of the feasible [1e-3, 1] parameter cube; keeps hulls
# boat-shaped and the taper constraint p1 + p2 <= 1 satisfied by construction
HULL_PARAM_RANGES = np.array([
    [0.15, 0.45],   # bow taper fraction
    [0.15, 0.45],   # stern taper fraction
    [0.08, 0.20],   # beam fraction
    [0.04, 0.12],   # depth fraction
    [0.20, 1.00],   # stern beam fraction of B_d/2
    [0.30, 0.90],   # waterline fraction of depth
])


def make_mixture_dataset(n, seed):
    """n unlabelled draws from the mixture."""
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, MIXTURE_MODES.shape[0], size=n)
    X = MIXTURE_MODES[comp] + MIXTURE_STD * rng.standard_normal((n, MIXTURE_MODES.shape[1]))
    return Dataset(X=X)


def nearest_mode_fractions(X):
    """Fraction of rows claimed by each mixture mode under nearest-mode assignment."""
    X = np.asarray(X, dtype=np.float64)
    d2 = ((X[:, None, :] - MIXTURE_MODES[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    return np.bincount(nearest, minlength=MIXTURE_MODES.shape[0]) / X.shape[0]


def sample_hull_params(n, seed):
    """Uniform hull parameter vectors inside HULL_PARAM_RANGES."""
    rng = np.random.default_rng(seed)
    lo, hi = HULL_PARAM_RANGES[:, 0], HULL_PARAM_RANGES[:, 1]
    return lo + (hi - lo) * rng.random((n, N_PARAMS))


def hull_resistance_dataset(n, seed, loa):
    """(parameters, aggregate resistance) pairs for surrogate fitting."""
    P = sample_hull_params(n, seed)
    return Dataset(X=P, rewards=aggregate_resistances(P, loa))
