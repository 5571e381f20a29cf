import numpy as np
import pytest

from rddkit.rewards import (
    HullResistanceReward,
    SyntheticTargetReward,
    airfoil_feasibility_penalty,
    check_self_intersection,
    composite_reward,
    ship_reward,
    soft_weight,
    synthetic_benchmark_reward,
)


def test_composite_reward():
    assert composite_reward(3.0, 1.25) == 1.75
    assert composite_reward(0.0, 0.0) == 0.0


def test_soft_weight_basic_and_clamped():
    assert soft_weight(0.0, 1.0) == 1.0
    assert soft_weight(2.0, 2.0) == pytest.approx(np.e)
    # exponent clamps at |r / alpha| = 20
    assert soft_weight(1e9, 1.0) == pytest.approx(np.exp(20.0))
    assert soft_weight(-1e9, 1.0) == pytest.approx(np.exp(-20.0))
    with pytest.raises(ValueError):
        soft_weight(1.0, 0.0)


def test_soft_weight_temperature_limit():
    r = np.random.default_rng(0).uniform(-100, 100, size=200)
    w = soft_weight(r, 1e9)
    assert np.max(np.abs(w - 1.0)) < 1e-6


def test_soft_weight_vectorized_matches_scalar():
    r = np.array([-50.0, -1.0, 0.0, 3.0, 50.0])
    w = soft_weight(r, 1.7)
    for ri, wi in zip(r, w):
        assert wi == soft_weight(float(ri), 1.7)


def test_synthetic_reward():
    target = np.array([1.0, 2.0])
    assert synthetic_benchmark_reward(np.array([1.0, 2.0]), target) == 0.0
    assert synthetic_benchmark_reward(np.array([2.0, 2.0]), target) == -1.0
    batch = synthetic_benchmark_reward(np.array([[1.0, 2.0], [1.0, 0.0]]), target)
    assert np.allclose(batch, [0.0, -4.0])
    model = SyntheticTargetReward(target)
    assert model(np.array([0.0, 0.0])) == -5.0
    assert np.allclose(model.batch(np.array([[0.0, 0.0]])), [-5.0])
    with pytest.raises(ValueError):
        synthetic_benchmark_reward(np.zeros(3), target)


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


def _oval(n=192):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([0.5 + 0.45 * np.cos(t), 0.5 + 0.2 * np.sin(t)])


def test_airfoil_penalty_zero_for_clean_profile():
    design = _oval().reshape(-1)
    assert design.shape == (384,)
    assert airfoil_feasibility_penalty(design) == 0.0


def test_airfoil_penalty_counts_range_violations():
    design = _oval().reshape(-1).copy()
    design[0] = 1.3   # 0.3 above the box
    design[2] = -0.1  # 0.1 below
    pen = airfoil_feasibility_penalty(design, lambda_range=10.0, lambda_intersect=0.0)
    assert pen == pytest.approx(10.0 * 0.4)


def test_airfoil_penalty_flags_crossings():
    crossed = _oval().copy()
    crossed[[10, 100]] = crossed[[100, 10]]  # swap two far-apart vertices
    expected = brute_force_crossings(crossed)
    assert expected >= 1
    pen = airfoil_feasibility_penalty(crossed.reshape(-1), lambda_range=0.0,
                                      lambda_intersect=7.0)
    assert pen == 7.0 * expected


def test_airfoil_penalty_rejects_wrong_shape():
    with pytest.raises(ValueError):
        airfoil_feasibility_penalty(np.zeros(10))


def test_hull_reward_feasible_and_infeasible():
    model = HullResistanceReward(loa=40.0, scale=1e-6, offset=0.0)
    good = model(np.array([0.3, 0.3, 0.12, 0.08, 0.6, 0.6]))
    assert np.isfinite(good)
    # out-of-cube parameters take the penalty branch instead of raising
    bad = model(np.array([1.5, 0.3, 0.12, 0.08, 0.6, 0.6]))
    assert bad <= -1000.0
    assert bad < good
    # taper fractions that overlap (p1 + p2 > 1) are infeasible too
    overlap = model(np.array([0.7, 0.7, 0.12, 0.08, 0.6, 0.6]))
    assert overlap <= -1000.0
    # a NaN parameter is infeasible, not a finite score
    assert model(np.array([np.nan, 0.25, 0.12, 0.08, 0.5, 0.75])) == -model.infeasible_base


def test_hull_reward_prefers_slender_hull():
    model = HullResistanceReward(loa=40.0)
    wide = model(np.array([0.3, 0.3, 0.20, 0.08, 0.6, 0.6]))
    slim = model(np.array([0.3, 0.3, 0.10, 0.08, 0.6, 0.6]))
    assert slim > wide
