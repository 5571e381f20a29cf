"""Black-box reward models and the exponential soft weights.

A reward is any object with one method, batch(X), that maps an (n, d)
array of physical designs to an (n,) float64 array of rewards, row by row
and without side effects. Samplers and the fine-tuner call it through
evaluate, the one place that checks that shape, and always score whole
batches (SVDD scores n x M candidates per step) and only ever evaluate a
reward, never differentiate it. The general form is

    r(x0) = r_hat(x0) - g_hat(x0)

where g_hat is a feasibility penalty. AirfoilFeasibilityReward.batch
subtracts the airfoil penalty (coordinate overshoot and closed polyline
self-intersection) from a base reward's batch; HullResistanceReward.batch
charges geometric constraint violation in place of the resistance.

soft_weight is the one soft-value weight of the toolkit, exp(v / alpha)
shifted by the maximum of v: SVDD selection weighs each row of candidates
with it, and fine-tuning the collected designs. The shift leaves every
ratio of weights unchanged, so the weights do not depend on a constant
added to the values, and exp never overflows.
"""

import numpy as np

from rddkit import benchmark, hull, trees
from rddkit.exceptions import ConfigError

AIRFOIL_WIDTH = 384   # 192 interleaved (x, y) outline points


def soft_weight(values, alpha):
    """exp((v - max v) / alpha) along the last axis of an array of values.

    The largest weight of each row is exactly 1, and a row of equal values
    gets weights of exactly 1.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    v = np.asarray(values, dtype=np.float64)
    return np.exp((v - v.max(axis=-1, keepdims=True)) / alpha)


def evaluate(reward, X):
    """reward.batch(X) as an (n,) float64 array: one reward per row of the n designs X.

    Any other shape, (n, 1) included, raises ValueError naming the reward
    class, the expected shape and the one returned.
    """
    n = len(X)
    r = np.asarray(reward.batch(X), dtype=np.float64)
    if r.shape != (n,):
        raise ValueError(f"{type(reward).__name__}.batch returned shape {r.shape} "
                         f"for {n} designs; expected ({n},)")
    return r


def synthetic_benchmark_reward(X, target):
    """Negative squared distances, (n,), of (n, d) designs to a fixed target."""
    X = np.asarray(X, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != target.shape[0]:
        raise ValueError(f"expected (n, {target.shape[0]}) designs, got shape {X.shape}")
    diff = X - target
    return -np.sum(diff * diff, axis=1)


def ship_reward(R_T, scale, offset):
    """Linearly scaled negative resistance, so lower drag scores higher."""
    return offset - scale * R_T


def check_self_intersection(points):
    """Count properly crossing non-adjacent segment pairs of a closed polyline.

    Proper means the two segments cross at an interior point of both; shared
    endpoints and collinear touching do not count. Exact sign-of-area tests
    from one (n, n) matrix S[i, k] = cross(E_i, P_k - P_i), with segment
    E_i = P_{i+1} - P_i: segment j's endpoints lie strictly on opposite sides
    of segment i's line exactly when S[i, j] * S[i, j+1] < 0.
    """
    P = np.asarray(points, dtype=np.float64)
    if P.shape[0] < 3:
        raise ValueError("need at least 3 points")
    E = np.roll(P, -1, axis=0) - P
    S = (E[:, None, 0] * (P[None, :, 1] - P[:, None, 1])
         - E[:, None, 1] * (P[None, :, 0] - P[:, None, 0]))
    straddle = S * np.roll(S, -1, axis=1) < 0
    # S[i, i] = 0, so no segment straddles itself or a neighbour it shares an
    # endpoint with, and the symmetric matrix counts each crossing pair twice
    return int(np.count_nonzero(straddle & straddle.T)) // 2


def airfoil_feasibility_penalty(designs, lambda_range, lambda_intersect):
    """Penalties, (n,), for (n, 384) rows of 192 interleaved (x, y) airfoil points.

    Charges lambda_range per unit of coordinate overshoot outside [0, 1]
    plus lambda_intersect per proper self-intersection of the closed
    outline. Zero exactly when the shape is feasible.
    """
    V = np.asarray(designs, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != AIRFOIL_WIDTH:
        raise ValueError(f"airfoil designs are (n, {AIRFOIL_WIDTH}) rows, got shape {V.shape}")
    overshoot = np.sum(np.maximum(0.0, V - 1.0) + np.maximum(0.0, -V), axis=1)
    crossings = np.fromiter((check_self_intersection(v.reshape(-1, 2)) for v in V),
                            dtype=np.float64, count=V.shape[0])
    return lambda_range * overshoot + lambda_intersect * crossings


class SyntheticTargetReward:
    """Negative squared distance to a target placed outside the data support."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    def batch(self, X):
        return synthetic_benchmark_reward(X, self.target)


class SurrogateReward:
    """Boosted-tree surrogate prediction."""

    def __init__(self, ensemble):
        self.ensemble = ensemble

    def batch(self, X):
        return trees.predict_ensemble(self.ensemble, np.asarray(X, dtype=np.float64))


class AirfoilFeasibilityReward:
    """Surrogate lift-to-drag style score minus the feasibility penalty."""

    def __init__(self, base, lambda_range, lambda_intersect):
        self.base = base
        self.lambda_range = lambda_range
        self.lambda_intersect = lambda_intersect

    def batch(self, X):
        X = np.asarray(X, dtype=np.float64)
        g_hat = airfoil_feasibility_penalty(X, self.lambda_range, self.lambda_intersect)
        return self.base.batch(X) - g_hat


class HullResistanceReward:
    """Scaled negative aggregate resistance of the parametric hull.

    A row that hull.constraint_violation finds infeasible is charged a fixed
    penalty plus its violation instead of raising, so samplers can keep
    going; a NaN row is charged the fixed penalty alone.
    """

    infeasible_base = 1000.0

    def __init__(self, loa, scale):
        self.loa = float(loa)
        self.scale = float(scale)

    def batch(self, X):
        X = np.asarray(X, dtype=np.float64)
        violation = hull.constraint_violation(X)
        out = np.where(np.isnan(violation), -self.infeasible_base,
                       -(self.infeasible_base + violation))
        feasible = violation == 0.0
        out[feasible] = ship_reward(hull.aggregate_resistances(X[feasible], self.loa),
                                    self.scale, 0.0)
        return out


def from_section(section, d, ensemble=None):
    """The reward a config.RewardSection describes, for d-dimensional designs.

    The one map from a section to a reward: it runs section.check() and the
    width checks, raising ConfigError, while the reward classes take their
    values as given and check nothing. The surrogate and airfoil kinds score
    with ensemble, the trees fitted to section.surrogate_path.
    """
    section.check()
    kind = section.kind
    if kind == "synthetic":
        target = benchmark.SYNTHETIC_TARGET if section.target is None \
            else np.asarray(section.target, dtype=np.float64)
        if target.shape != (d,):
            raise ConfigError(f"reward.target: needs {d} entries to match the model, "
                              f"got {target.size}")
        return SyntheticTargetReward(target)
    if kind != "hull" and ensemble.d != d:
        raise ConfigError(f"reward.surrogate_path: surrogate takes {ensemble.d} inputs, "
                          f"the model has {d}")
    width = {"hull": hull.N_PARAMS, "airfoil": AIRFOIL_WIDTH}.get(kind, d)
    if d != width:
        raise ConfigError(f"reward.kind: '{kind}' rewards take {width} inputs, the model has {d}")
    if kind == "hull":
        return HullResistanceReward(section.loa, section.scale)
    base = SurrogateReward(ensemble)
    if kind == "surrogate":
        return base
    return AirfoilFeasibilityReward(base, section.lambda_range, section.lambda_intersect)
