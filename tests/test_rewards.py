import numpy as np
import pytest

from rddkit import benchmark
from rddkit.config import RewardSection
from rddkit.exceptions import ConfigError, InfeasibleHullError
from rddkit.hull import aggregate_total_resistance, scale_params
from rddkit.rewards import (
    AirfoilFeasibilityReward,
    HullResistanceReward,
    SurrogateReward,
    SyntheticTargetReward,
    airfoil_feasibility_penalty,
    check_self_intersection,
    from_section,
    ship_reward,
    soft_weight,
    synthetic_benchmark_reward,
)
from rddkit.trees import fit_ensemble


def reference_hull_reward(model, p):
    """One hull design scored on its own: the per-vector reward that
    HullResistanceReward.batch must reproduce row by row."""
    p = np.asarray(p, dtype=np.float64)
    violation = float(np.sum(np.maximum(0.0, p - 1.0) + np.maximum(0.0, 1e-3 - p)))
    if violation == 0.0 and p[0] + p[1] > 1.0:
        violation = float(p[0] + p[1] - 1.0)
    if violation > 0.0:
        return -(model.infeasible_base + violation)
    try:
        dims = scale_params(p, model.loa)
    except InfeasibleHullError:
        return -model.infeasible_base
    result = aggregate_total_resistance(dims)
    return -model.scale * result.aggregate


def reference_airfoil_penalty(v, lambda_range=10.0, lambda_intersect=1.0):
    """The penalty of one 384-vector, the per-row reference of the batched one."""
    v = np.asarray(v, dtype=np.float64)
    overshoot = np.sum(np.maximum(0.0, v - 1.0) + np.maximum(0.0, -v))
    crossings = check_self_intersection(v.reshape(192, 2))
    return lambda_range * float(overshoot) + lambda_intersect * crossings


def reference_airfoil_reward(model, x):
    """One airfoil scored on its own: base reward minus its penalty."""
    g_hat = reference_airfoil_penalty(x, model.lambda_range, model.lambda_intersect)
    return float(model.base.batch(x[None, :])[0]) - g_hat


def test_soft_weight_max_is_one_and_huge_values_stay_finite():
    w = soft_weight(np.array([0.0, 2.0, -2.0]), 2.0)
    assert w[1] == 1.0
    assert w[0] == pytest.approx(np.exp(-1.0)) and w[2] == pytest.approx(np.exp(-2.0))
    # magnitudes far beyond exp's range give finite weights in reward order
    r = np.array([-1e12, 5e11, -3.0, 1e12, 0.0])
    w = soft_weight(r, 1.0)
    assert np.all(np.isfinite(w)) and w.max() == 1.0
    assert np.all(np.diff(w[np.argsort(r)]) >= 0.0)
    assert np.array_equal(soft_weight(np.full((3, 4), 1e300), 0.5), np.ones((3, 4)))
    with pytest.raises(ValueError):
        soft_weight(np.array([1.0]), 0.0)


def test_soft_weight_temperature_limit():
    r = np.random.default_rng(0).uniform(-100, 100, size=200)
    w = soft_weight(r, 1e9)
    assert np.max(np.abs(w - 1.0)) < 1e-6


def test_soft_weight_weighs_each_row_of_a_batch_on_its_own():
    R = np.array([[-50.0, -1.0, 0.0, 3.0, 50.0],
                  [7.0, 7.0, 7.0, 7.0, 7.0],
                  [1e6, -1e6, 1e6 - 1.7, 0.0, 1e6]])
    W = soft_weight(R, 1.7)
    for r, w in zip(R, W):
        assert np.array_equal(w, soft_weight(r, 1.7))
        assert np.array_equal(w, np.exp((r - r.max()) / 1.7))
    assert np.array_equal(W[1], np.ones(5))
    assert W[2, 2] == pytest.approx(np.exp(-1.0))


def test_synthetic_reward():
    target = np.array([1.0, 2.0])
    assert synthetic_benchmark_reward(np.array([[1.0, 2.0]]), target)[0] == 0.0
    assert synthetic_benchmark_reward(np.array([[2.0, 2.0]]), target)[0] == -1.0
    batch = synthetic_benchmark_reward(np.array([[1.0, 2.0], [1.0, 0.0]]), target)
    assert np.allclose(batch, [0.0, -4.0])
    model = SyntheticTargetReward(target)
    assert model.batch(np.array([[0.0, 0.0]]))[0] == -5.0
    assert np.allclose(model.batch(np.array([[0.0, 0.0]])), [-5.0])
    # a design of the wrong width, or one not stacked into a batch
    for X in (np.zeros((1, 3)), np.zeros(3), np.zeros(2)):
        with pytest.raises(ValueError):
            synthetic_benchmark_reward(X, target)


def test_ship_reward_orientation():
    # lower resistance is better
    assert ship_reward(1000.0, scale=1e-3, offset=5.0) == 4.0
    assert ship_reward(500.0, 1e-3, 5.0) > ship_reward(1000.0, 1e-3, 5.0)


def brute_force_crossings(points):
    """Quadratic all-pairs count with the textbook orientation test.

    Same adjacency convention as the library: consecutive segments and the
    closing pair share an endpoint and are skipped.
    """
    n = len(points)

    def ccw(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    count = 0
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            c, d = points[j], points[(j + 1) % n]
            if ccw(a, b, c) * ccw(a, b, d) < 0 and ccw(c, d, a) * ccw(c, d, b) < 0:
                count += 1
    return count


def test_self_intersection_known_shapes():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert check_self_intersection(square) == 0
    bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    assert check_self_intersection(bowtie) == 1
    with pytest.raises(ValueError):
        check_self_intersection(np.zeros((2, 2)))


def test_self_intersection_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for k in range(200):
        n = int(rng.integers(4, 12))
        pts = rng.random((n, 2))
        assert check_self_intersection(pts) == brute_force_crossings(pts)
    # points on a small integer grid: collinear, touching and repeated points
    for k in range(200):
        n = int(rng.integers(3, 14))
        pts = rng.integers(0, 4, size=(n, 2)).astype(float)
        assert check_self_intersection(pts) == brute_force_crossings(pts)


def _oval(n=192):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([0.5 + 0.45 * np.cos(t), 0.5 + 0.2 * np.sin(t)])


def test_airfoil_penalty_zero_for_clean_profile():
    design = _oval().reshape(-1)
    assert design.shape == (384,)
    assert airfoil_feasibility_penalty(design[None, :], 10.0, 1.0)[0] == 0.0


def test_airfoil_penalty_counts_range_violations():
    design = _oval().reshape(-1).copy()
    design[0] = 1.3   # 0.3 above the box
    design[2] = -0.1  # 0.1 below
    pen = airfoil_feasibility_penalty(design[None, :], lambda_range=10.0, lambda_intersect=0.0)
    assert pen[0] == pytest.approx(10.0 * 0.4)


def test_airfoil_penalty_flags_crossings():
    crossed = _oval().copy()
    crossed[[10, 100]] = crossed[[100, 10]]  # swap two far-apart vertices
    expected = brute_force_crossings(crossed)
    assert expected >= 1
    pen = airfoil_feasibility_penalty(crossed.reshape(1, -1), lambda_range=0.0,
                                      lambda_intersect=7.0)
    assert pen[0] == 7.0 * expected


def test_airfoil_penalty_rejects_wrong_shape():
    # a single unstacked 384-vector is not a batch either
    for X in (np.zeros(10), np.zeros((2, 10)), np.zeros(384)):
        with pytest.raises(ValueError):
            airfoil_feasibility_penalty(X, 10.0, 1.0)


def _airfoil_rows():
    """A clean oval, one with coordinates outside [0, 1], and a crossed outline."""
    clean = _oval().reshape(-1)
    over = clean.copy()
    over[[0, 2, 101]] = [1.3, -0.1, 1.0 + 1e-9]
    crossed = _oval()
    crossed[[10, 100]] = crossed[[100, 10]]
    X = np.stack([clean, over, crossed.reshape(-1)])
    assert check_self_intersection(X[2].reshape(192, 2)) >= 1
    return X


def test_airfoil_penalty_batch_equals_per_row_penalties():
    X = _airfoil_rows()
    for lam_r, lam_i in ((10.0, 1.0), (0.3, 7.0)):
        pen = airfoil_feasibility_penalty(X, lam_r, lam_i)
        assert pen.shape == (3,) and pen.dtype == np.float64
        assert pen[0] == 0.0 and pen[1] > 0.0 and pen[2] > 0.0
        assert np.array_equal(pen, [reference_airfoil_penalty(x, lam_r, lam_i) for x in X])


def test_airfoil_reward_batch_equals_per_row_rewards():
    X = _airfoil_rows()
    rng = np.random.default_rng(4)
    train = rng.random((40, 384))
    ensemble, _ = fit_ensemble(train, train[:, 7] - train[:, 300], n_trees=4, max_depth=2)
    model = AirfoilFeasibilityReward(SurrogateReward(ensemble), lambda_range=10.0,
                                     lambda_intersect=2.0)
    r = model.batch(X)
    assert r.shape == (3,)
    assert np.array_equal(r, [reference_airfoil_reward(model, x) for x in X])
    assert np.array_equal(r, model.base.batch(X) - airfoil_feasibility_penalty(X, 10.0, 2.0))
    assert r[1] < model.base.batch(X[1:2])[0] and r[2] < model.base.batch(X[2:3])[0]


def test_hull_reward_feasible_and_infeasible():
    model = HullResistanceReward(loa=40.0, scale=1e-6)

    def one(p):
        return model.batch(np.array([p]))[0]

    good = one([0.3, 0.3, 0.12, 0.08, 0.6, 0.6])
    assert np.isfinite(good)
    # out-of-cube parameters take the penalty branch instead of raising
    bad = one([1.5, 0.3, 0.12, 0.08, 0.6, 0.6])
    assert bad <= -1000.0
    assert bad < good
    # taper fractions that overlap (p1 + p2 > 1) are infeasible too
    overlap = one([0.7, 0.7, 0.12, 0.08, 0.6, 0.6])
    assert overlap <= -1000.0
    # a NaN parameter is infeasible, not a finite score
    assert one([np.nan, 0.25, 0.12, 0.08, 0.5, 0.75]) == -model.infeasible_base


def test_hull_reward_prefers_slender_hull():
    model = HullResistanceReward(loa=40.0, scale=1e-6)
    wide, slim = model.batch(np.array([[0.3, 0.3, 0.20, 0.08, 0.6, 0.6],
                                       [0.3, 0.3, 0.10, 0.08, 0.6, 0.6]]))
    assert slim > wide


def test_hull_reward_batch_equals_per_row_rewards():
    model = HullResistanceReward(loa=40.0, scale=1e-6)
    P = np.array([
        [0.3, 0.3, 0.12, 0.08, 0.6, 0.6],       # feasible
        [1.5, 0.3, 0.12, 0.08, 0.6, 0.6],       # out of the cube, above
        [0.3, 0.3, -0.2, 0.08, 0.6, 1.1],       # out of the cube, twice
        [0.7, 0.7, 0.12, 0.08, 0.6, 0.6],       # p0 + p1 > 1
        [0.3, 0.3, 0.12, 5e-4, 0.6, 0.6],       # below the 1e-3 floor
        [0.3, 0.3, 0.12, 0.08, 1e-3, 0.6],      # on the floor: feasible
        [np.nan, 0.25, 0.12, 0.08, 0.5, 0.75],  # NaN
        [0.25, 0.2, 0.1, 0.06, 0.5, 0.7],       # feasible
        [0.3, 0.3, np.inf, 0.08, 0.6, 0.6],     # infinite
    ])
    r = model.batch(P)
    assert r.shape == (len(P),) and r.dtype == np.float64
    assert np.array_equal(r, [reference_hull_reward(model, p) for p in P])
    assert r[6] == -model.infeasible_base
    assert np.all(np.isfinite(r[[0, 5, 7]])) and np.all(r[[1, 2, 3, 4]] < -1000.0)
    with pytest.raises(ValueError):
        model.batch(P[0])


def _fitted(d, seed):
    X = np.random.default_rng(seed).random((40, d))
    return fit_ensemble(X, X[:, 0] - X[:, -1], n_trees=4, max_depth=2)[0]


def test_from_section_builds_each_kind_as_its_class():
    """Each kind's reward scores a fixed batch bit for bit as the class built by hand."""
    mix = np.random.default_rng(3).normal(size=(16, 2))
    hulls = np.array([[0.3, 0.3, 0.12, 0.08, 0.6, 0.6], [0.25, 0.2, 0.1, 0.06, 0.5, 0.7],
                      [1.5, 0.3, 0.12, 0.08, 0.6, 0.6]])
    surrogate, airfoil = _fitted(3, 5), _fitted(384, 6)
    cases = [
        (RewardSection(), 2, None, SyntheticTargetReward(benchmark.SYNTHETIC_TARGET), mix),
        (RewardSection(target=[1.5, -0.5]), 2, None, SyntheticTargetReward([1.5, -0.5]), mix),
        (RewardSection(kind="hull", loa=40.0, scale=2e-6), 6, None,
         HullResistanceReward(40.0, 2e-6), hulls),
        (RewardSection(kind="surrogate", surrogate_path="s.rddt"), 3, surrogate,
         SurrogateReward(surrogate), np.random.default_rng(7).random((16, 3))),
        (RewardSection(kind="airfoil", surrogate_path="a.rddt", lambda_range=0.3,
                       lambda_intersect=7.0), 384, airfoil,
         AirfoilFeasibilityReward(SurrogateReward(airfoil), 0.3, 7.0), _airfoil_rows()),
    ]
    for section, d, ensemble, by_hand, X in cases:
        reward = from_section(section, d, ensemble)
        assert type(reward) is type(by_hand)
        assert np.array_equal(reward.batch(X), by_hand.batch(X))


def test_from_section_runs_the_section_check():
    # a negative scale would score more drag higher, and a negative penalty
    # weight would reward coordinates outside [0, 1]
    with pytest.raises(ConfigError, match=r"reward\.scale: must be > 0"):
        from_section(RewardSection(kind="hull", scale=-1e-6), 6)
    with pytest.raises(ConfigError, match=r"reward\.lambda_range: must be >= 0"):
        from_section(RewardSection(kind="airfoil", surrogate_path="a.rddt", lambda_range=-10.0),
                     384, _fitted(384, 6))
    with pytest.raises(ConfigError, match=r"reward\.target: must be finite"):
        from_section(RewardSection(target=[np.nan, 0.0]), 2)


def test_from_section_checks_the_design_width():
    narrow = _fitted(2, 5)
    cases = [
        (RewardSection(target=[1.0]), 2, None, "reward.target: needs 2 entries to match the "
                                                "model, got 1"),
        (RewardSection(), 3, None, "reward.target: needs 3 entries to match the model, got 2"),
        (RewardSection(kind="hull"), 2, None, "reward.kind: 'hull' rewards take 6 inputs, "
                                              "the model has 2"),
        (RewardSection(kind="surrogate", surrogate_path="s.rddt"), 3, narrow,
         "reward.surrogate_path: surrogate takes 2 inputs, the model has 3"),
        # the surrogate's width is checked before the airfoil width
        (RewardSection(kind="airfoil", surrogate_path="a.rddt"), 3, narrow,
         "reward.surrogate_path: surrogate takes 2 inputs, the model has 3"),
        (RewardSection(kind="airfoil", surrogate_path="a.rddt"), 2, narrow,
         "reward.kind: 'airfoil' rewards take 384 inputs, the model has 2"),
    ]
    for section, d, ensemble, message in cases:
        with pytest.raises(ConfigError) as err:
            from_section(section, d, ensemble)
        assert str(err.value) == message
