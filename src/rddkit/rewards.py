"""Black-box reward models and the exponential soft weights.

A reward is any pure map from a physical design vector to a real number.
Nothing in the toolkit ever differentiates a reward; samplers and the
fine-tuner only call the evaluation interface. The general form is

    r(x0) = r_hat(x0) - g_hat(x0)

where g_hat is a feasibility penalty (coordinate overshoot and closed
polyline self-intersection for airfoil rows, geometric constraint violation
for hulls). Soft weights are w = exp(clamp(r / alpha, -20, 20)); the clamp
keeps exp finite while preserving the reward ordering.
"""

import numpy as np

from rddkit.exceptions import InfeasibleHullError

SOFT_EXP_CLAMP = 20.0


def composite_reward(r_hat, g_hat):
    """Reward minus feasibility penalty."""
    return r_hat - g_hat


def soft_weight(r, alpha):
    """exp(r / alpha) with the exponent clamped to +-20."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    z = np.clip(np.asarray(r, dtype=np.float64) / alpha, -SOFT_EXP_CLAMP, SOFT_EXP_CLAMP)
    out = np.exp(z)
    return float(out) if np.ndim(r) == 0 else out


def synthetic_benchmark_reward(x, target):
    """Negative squared distance to a fixed target design."""
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if x.shape[-1] != target.shape[0]:
        raise ValueError(f"dim mismatch: {x.shape[-1]} vs {target.shape[0]}")
    diff = x - target
    return -float(np.dot(diff, diff)) if x.ndim == 1 else -np.sum(diff * diff, axis=1)


def ship_reward(R_T, scale, offset):
    """Linearly scaled negative resistance, so lower drag scores higher."""
    return offset - scale * R_T


def check_self_intersection(points):
    """Count properly crossing non-adjacent segment pairs of a closed polyline.

    Proper means the two segments cross at an interior point of both; shared
    endpoints and collinear touching do not count. Exact sign-of-area tests,
    all pairs evaluated with numpy broadcasting.
    """
    P = np.asarray(points, dtype=np.float64)
    n = P.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points")
    A = P
    B = np.roll(P, -1, axis=0)

    def cross(o, p, q):
        # z-component of (p - o) x (q - o); shapes broadcast
        return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
                - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))

    Ai, Bi = A[:, None, :], B[:, None, :]
    Cj, Dj = A[None, :, :], B[None, :, :]
    d1 = cross(Ai, Bi, Cj)
    d2 = cross(Ai, Bi, Dj)
    d3 = cross(Cj, Dj, Ai)
    d4 = cross(Cj, Dj, Bi)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)

    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    nonadjacent = (j - i >= 2) & ~((i == 0) & (j == n - 1))
    return int(np.count_nonzero(proper & nonadjacent))


def airfoil_feasibility_penalty(design, lambda_range=10.0, lambda_intersect=1.0):
    """Penalty for a 384-vector of 192 interleaved (x, y) airfoil points.

    Charges lambda_range per unit of coordinate overshoot outside [0, 1]
    plus lambda_intersect per proper self-intersection of the closed
    outline. Zero exactly when the shape is feasible.
    """
    v = np.asarray(design, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != 384:
        raise ValueError(f"airfoil designs are 384-vectors, got shape {v.shape}")
    overshoot = np.sum(np.maximum(0.0, v - 1.0) + np.maximum(0.0, -v))
    crossings = check_self_intersection(v.reshape(192, 2))
    return lambda_range * float(overshoot) + lambda_intersect * crossings


class RewardModel:
    """Base class: a pure design -> reward map.

    Subclasses implement __call__ on a single vector; batch() loops unless
    overridden with something vectorized.
    """

    def __call__(self, x):
        raise NotImplementedError

    def batch(self, X):
        return np.array([float(self(x)) for x in np.asarray(X)], dtype=np.float64)


class SyntheticTargetReward(RewardModel):
    """Negative squared distance to a target placed outside the data support."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    def __call__(self, x):
        return synthetic_benchmark_reward(np.asarray(x, dtype=np.float64), self.target)

    def batch(self, X):
        return synthetic_benchmark_reward(np.asarray(X, dtype=np.float64), self.target)


class SurrogateReward(RewardModel):
    """Boosted-tree surrogate prediction."""

    def __init__(self, ensemble):
        from rddkit.trees import predict_ensemble

        self._predict = lambda X: predict_ensemble(ensemble, X)

    def __call__(self, x):
        return float(self._predict(np.asarray(x, dtype=np.float64)[None, :])[0])

    def batch(self, X):
        return self._predict(np.asarray(X, dtype=np.float64))


class AirfoilFeasibilityReward(RewardModel):
    """Surrogate lift-to-drag style score minus the feasibility penalty."""

    def __init__(self, base, lambda_range=10.0, lambda_intersect=1.0):
        self.base = base
        self.lambda_range = lambda_range
        self.lambda_intersect = lambda_intersect

    def __call__(self, x):
        g_hat = airfoil_feasibility_penalty(x, self.lambda_range, self.lambda_intersect)
        return composite_reward(float(self.base(x)), g_hat)


class HullResistanceReward(RewardModel):
    """Scaled negative aggregate resistance of the parametric hull.

    Infeasible parameter vectors (outside (0, 1] or violating the taper
    length constraint) are charged a fixed penalty plus the violation
    magnitude instead of raising, so samplers can keep going.
    """

    infeasible_base = 1000.0

    def __init__(self, loa=80.0, scale=1e-6, offset=0.0):
        self.loa = float(loa)
        self.scale = float(scale)
        self.offset = float(offset)

    def __call__(self, p):
        from rddkit.hull import aggregate_total_resistance, scale_params

        p = np.asarray(p, dtype=np.float64)
        violation = float(np.sum(np.maximum(0.0, p - 1.0) + np.maximum(0.0, 1e-3 - p)))
        if violation == 0.0 and p[0] + p[1] > 1.0:
            violation = float(p[0] + p[1] - 1.0)
        if violation > 0.0:
            return -(self.infeasible_base + violation)
        try:
            dims = scale_params(p, self.loa)
        except InfeasibleHullError:
            return -self.infeasible_base
        result = aggregate_total_resistance(dims)
        return ship_reward(result.aggregate, self.scale, self.offset)
