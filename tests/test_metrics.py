import json
import math

import numpy as np
import pytest

from rddkit import cli, metrics
from rddkit.metrics import (
    BoxplotStats,
    beyond_distribution,
    boxplot_stats,
    kde,
    silverman_bandwidth,
)


def quantile_oracle(sorted_v, q):
    """Linear interpolation between order statistics at position (n-1)q."""
    n = len(sorted_v)
    pos = (n - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_v[lo] * (1 - frac) + sorted_v[hi] * frac


def test_boxplot_quartiles_match_interpolation_oracle():
    rng = np.random.default_rng(5)
    for k in range(50):
        n = int(rng.integers(1, 60))
        v = rng.standard_normal(n) * rng.uniform(0.1, 10)
        s = np.sort(v)
        stats = boxplot_stats(v)
        assert stats.q1 == pytest.approx(quantile_oracle(s, 0.25), abs=1e-12)
        assert stats.median == pytest.approx(quantile_oracle(s, 0.5), abs=1e-12)
        assert stats.q3 == pytest.approx(quantile_oracle(s, 0.75), abs=1e-12)
        assert stats.iqr == pytest.approx(stats.q3 - stats.q1, abs=1e-12)


def test_boxplot_whiskers_clamp_to_data():
    # one far outlier on each side; whiskers stop at the extreme inliers
    v = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 100.0, -100.0])
    stats = boxplot_stats(v)
    lo_fence = stats.q1 - 1.5 * stats.iqr
    hi_fence = stats.q3 + 1.5 * stats.iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    assert stats.whisker_lo == inside.min()
    assert stats.whisker_hi == inside.max()
    assert np.array_equal(stats.outliers, [-100.0, 100.0])


def test_boxplot_no_outliers_for_tight_data():
    v = np.linspace(0, 1, 11)
    stats = boxplot_stats(v)
    assert stats.outliers.size == 0
    assert stats.whisker_lo == 0.0
    assert stats.whisker_hi == 1.0
    d = json.loads(cli._json(stats))
    assert d["outliers"] == []
    assert d["median"] == 0.5


def test_boxplot_single_value_and_empty():
    stats = boxplot_stats([3.0])
    assert stats.median == 3.0
    assert stats.iqr == 0.0
    assert stats.whisker_lo == stats.whisker_hi == 3.0
    with pytest.raises(ValueError):
        boxplot_stats([])


def test_boxplot_outliers_sorted():
    v = np.concatenate([np.zeros(20), [50.0, -70.0, 60.0, -80.0]])
    stats = boxplot_stats(v)
    assert np.array_equal(stats.outliers, [-80.0, -70.0, 50.0, 60.0])


def test_silverman_bandwidth_matches_formula():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(400)
    std = v.std(ddof=1)
    q1, q3 = np.quantile(v, [0.25, 0.75])
    expected = 0.9 * min(std, (q3 - q1) / 1.34) * 400 ** (-0.2)
    assert silverman_bandwidth(v) == pytest.approx(expected, rel=1e-12)
    # degenerate data still yields a positive width
    assert silverman_bandwidth(np.full(5, 2.0)) > 0


def test_kde_default_grid_integrates_to_one():
    rng = np.random.default_rng(2)
    for v in (rng.standard_normal(500),
              rng.exponential(2.0, 300),
              np.concatenate([rng.normal(-3, 0.2, 200), rng.normal(3, 0.2, 200)])):
        grid, density = kde(v)
        total = np.trapezoid(density, grid)
        assert abs(total - 1.0) < 1e-3
        assert np.all(density >= 0)


def test_kde_matches_direct_gaussian_sum():
    v = np.array([0.0, 1.0, 3.0])
    grid = np.linspace(-2, 5, 40)
    h = 0.7
    _, density = kde(v, bandwidth=h, grid=grid)
    expected = np.zeros_like(grid)
    for x in v:
        expected += np.exp(-0.5 * ((grid - x) / h) ** 2)
    expected /= len(v) * h * math.sqrt(2 * math.pi)
    assert np.allclose(density, expected, atol=1e-14)


def test_kde_custom_grid_passthrough():
    v = np.random.default_rng(3).standard_normal(100)
    grid = np.linspace(-1, 1, 17)
    out_grid, density = kde(v, grid=grid)
    assert np.array_equal(out_grid, grid)
    assert density.shape == (17,)


def test_kde_blocks_equal_the_one_shot_sum():
    # a custom grid with a partial last block, and the default grid
    v = np.random.default_rng(4).standard_normal(301)
    h = 0.4
    for grid in (np.linspace(-4, 4, 3 * metrics._KDE_BLOCK + 5), None):
        grid, density = kde(v, bandwidth=h, grid=grid)
        assert grid.size > metrics._KDE_BLOCK
        z = (grid[:, None] - v[None, :]) / h
        expected = np.exp(-0.5 * z * z).sum(axis=1) / (v.size * h * np.sqrt(2.0 * np.pi))
        assert np.array_equal(density, expected)


def test_kde_input_validation():
    with pytest.raises(ValueError):
        kde([])
    with pytest.raises(ValueError):
        kde([1.0, 2.0], bandwidth=0.0)


def test_beyond_distribution_exact_counts():
    train = np.array([0.0, 1.0, 2.0, 3.0])
    sample = np.array([2.5, 3.0, 3.5, 4.0, 5.0])
    out = beyond_distribution(sample, train)
    # strictly above max(train) = 3: three of five
    assert out["fraction_above_training_max"] == 0.6
    assert out["mean_shift"] == pytest.approx(sample.mean() - train.mean())
    assert out["relative_improvement"] == pytest.approx(
        (sample.mean() - train.mean()) / abs(train.mean()))


def test_beyond_distribution_zero_mean_training():
    out = beyond_distribution(np.array([1.0]), np.array([-1.0, 1.0]))
    assert out["fraction_above_training_max"] == 0.0
    assert math.isnan(out["relative_improvement"])
    with pytest.raises(ValueError):
        beyond_distribution(np.array([]), np.array([1.0]))


def test_beyond_distribution_random_scan_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = rng.standard_normal(int(rng.integers(1, 50)))
        t = rng.standard_normal(int(rng.integers(1, 50)))
        out = beyond_distribution(s, t)
        count = sum(1 for x in s if x > max(t))
        assert out["fraction_above_training_max"] == count / len(s)
