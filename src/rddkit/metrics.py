"""Distribution analysis of reward populations.

Boxplot statistics with the 1.5 IQR whisker rule, Gaussian kernel density
estimates, and measures of how far a generated population moves beyond its
training distribution.
"""

from dataclasses import dataclass

import numpy as np

_KDE_GRID = 512    # points of the default kde grid
# kde works in one (rows, n) float64 buffer: at most 64 grid points and 64 KiB
# (below glibc's 128 KiB mmap threshold), and one grid point past 8192 data points
_KDE_BLOCK = 64
_KDE_BUFFER_WORDS = 8192


@dataclass
class BoxplotStats:
    median: float
    q1: float
    q3: float
    iqr: float
    whisker_lo: float
    whisker_hi: float
    outliers: np.ndarray


def boxplot_stats(values):
    """Quartiles by linear interpolation; whiskers clamp to the most extreme
    data points within 1.5 IQR of the quartiles; everything beyond is an
    outlier."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty input")
    q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    return BoxplotStats(
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        iqr=float(iqr),
        whisker_lo=float(inside.min()),
        whisker_hi=float(inside.max()),
        outliers=np.sort(v[(v < lo_fence) | (v > hi_fence)]),
    )


def silverman_bandwidth(values):
    """Silverman's rule of thumb; falls back to a small positive width for
    degenerate data so the density stays well defined."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    std = v.std(ddof=1) if n > 1 else 0.0
    q1, q3 = np.quantile(v, [0.25, 0.75])
    iqr = q3 - q1
    spread = min(std, iqr / 1.34) if iqr > 0 and std > 0 else max(std, iqr / 1.34)
    h = 0.9 * spread * n ** (-0.2)
    if h <= 0:
        h = max(1e-3, 1e-3 * abs(float(v[0])))
    return float(h)


def kde(values, bandwidth=None, grid=None):
    """Gaussian kernel density estimate.

    bandwidth defaults to Silverman's rule; the default grid has 512 points
    spanning the data range plus 4 bandwidths on each side (wide enough that
    the trapezoid integral of the density is 1 to within 1e-3). Sums run over
    blocks of grid points, computed in place in one buffer of at most 64 KiB
    (one grid point's row when there are more than 8192 data points).
    Returns (grid, density).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty input")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(v)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if grid is None:
        grid = np.linspace(v.min() - 4.0 * bandwidth, v.max() + 4.0 * bandwidth, _KDE_GRID)
    else:
        grid = np.asarray(grid, dtype=np.float64)
    density = np.empty(grid.shape[0])
    rows = max(1, min(_KDE_BLOCK, _KDE_BUFFER_WORDS // v.size))
    buf = np.empty((rows, v.size))
    for lo in range(0, grid.shape[0], rows):
        z = buf[:grid.shape[0] - lo]    # the last block may be short
        np.subtract(grid[lo:lo + rows, None], v, out=z)
        np.divide(z, bandwidth, out=z)
        np.multiply(z, z, out=z)
        np.multiply(z, -0.5, out=z)
        np.exp(z, out=z)
        z.sum(axis=1, out=density[lo:lo + rows])
    density /= v.size * bandwidth * np.sqrt(2.0 * np.pi)
    return grid, density


def beyond_distribution(sample_rewards, training_rewards):
    """How far a generated population moves past its training data.

    Returns the fraction of samples strictly above the training maximum, the
    shift of the mean, and that shift relative to |training mean|.
    """
    s = np.asarray(sample_rewards, dtype=np.float64)
    t = np.asarray(training_rewards, dtype=np.float64)
    if s.size == 0 or t.size == 0:
        raise ValueError("both reward sets must be non-empty")
    fraction = float(np.count_nonzero(s > t.max()) / s.size)
    shift = float(s.mean() - t.mean())
    denom = abs(float(t.mean()))
    relative = shift / denom if denom > 0 else float("nan")
    return {
        "fraction_above_training_max": fraction,
        "mean_shift": shift,
        "relative_improvement": relative,
    }
