"""Gradient-boosted regression trees with squared loss.

Greedy axis-aligned splits chosen by variance reduction over 32 per-feature
quantile thresholds, leaves predicting the mean residual, shrinkage applied
per round. The model is a step function of the input, so it has no useful
gradient anywhere; callers treat it as a black box. Fitting is fully
deterministic: candidate thresholds come from quantiles and split-gain ties
break toward the lowest feature index, then the lowest threshold.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from rddkit.data import BinaryReader, write_binary
from rddkit.exceptions import ConfigError, DataError, NumericalError

_MAGIC = b"RDDT"
_FORMAT_VERSION = 2
_N_THRESHOLDS = 32    # per-feature quantile thresholds a split may use


@dataclass
class Tree:
    feature: np.ndarray    # int32, -1 marks a leaf
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    value: np.ndarray      # float64, meaningful at leaves


# rows per block of the packed traversal; bounds each (rows, trees) index
# array of one predict call at 4096 * n_trees * 8 bytes
_PREDICT_BLOCK = 4096


@dataclass
class _PackedTrees:
    """Every tree padded into one (n_trees, max_nodes) layout, flattened.

    Node i's children sit at child[2i] (left) and child[2i + 1] (right), as
    flat node positions. Leaves and padding loop to themselves with
    threshold +inf and feature 0, so a descent of ``depth`` levels lands
    every row on its leaf whatever the tree's shape.
    """

    feature: np.ndarray    # intp
    threshold: np.ndarray  # float64
    child: np.ndarray      # intp, two per node
    value: np.ndarray      # float64
    roots: np.ndarray      # intp (n_trees,), flat position of each root
    depth: int             # levels from a root to the deepest leaf


def _pack(trees, d):
    """Pad the trees into one flat layout; DataError on a malformed tree."""
    n_trees = len(trees)
    width = max((t.feature.shape[0] for t in trees), default=1)
    roots = np.arange(n_trees, dtype=np.intp) * width
    flat = roots[:, None] + np.arange(width, dtype=np.intp)
    feature = np.zeros((n_trees, width), dtype=np.intp)
    threshold = np.full((n_trees, width), np.inf)
    left, right = flat.copy(), flat.copy()
    value = np.zeros((n_trees, width))
    leaf = np.ones((n_trees, width), dtype=bool)
    for k, t in enumerate(trees):
        n = t.feature.shape[0]
        internal = t.feature >= 0
        children = np.concatenate([t.left[internal], t.right[internal]])
        if n == 0 or np.any(children < 0) or np.any(children >= n):
            raise DataError(f"tree {k}: child index outside its {n} nodes")
        if np.any(t.feature >= d):
            raise DataError(f"tree {k}: feature index outside the {d} inputs")
        feature[k, :n] = np.where(internal, t.feature, 0)
        threshold[k, :n] = np.where(internal, t.threshold, np.inf)
        left[k, :n] = np.where(internal, t.left + roots[k], flat[k, :n])
        right[k, :n] = np.where(internal, t.right + roots[k], flat[k, :n])
        value[k, :n] = t.value
        leaf[k, :n] = ~internal
    left, right, leaf = left.ravel(), right.ravel(), leaf.ravel()
    # node heights by fixed-point iteration; a tree of n nodes is less than
    # n deep, so no fixed point within `width` rounds means a cycle
    height = np.zeros(left.shape[0], dtype=np.intp)
    for _ in range(width):
        new = np.where(leaf, 0, 1 + np.maximum(height[left], height[right]))
        if np.array_equal(new, height):
            break
        height = new
    else:
        raise DataError("tree nodes form a cycle")
    child = np.stack([left, right], axis=1).ravel()
    return _PackedTrees(feature.ravel(), threshold.ravel(), child, value.ravel(),
                        roots, int(height[roots].max(initial=0)))


@dataclass
class TreeEnsemble:
    base_prediction: float
    trees: list
    shrinkage: float
    max_depth: int
    n_trees: int
    d: int
    packed: _PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.packed = _pack(self.trees, self.d)


class _TreeBuilder:
    def __init__(self, bins, thresholds, max_depth):
        d, n_thr = thresholds.shape
        self.n_bins = n_thr + 1
        # feature f's bins shifted to [f * n_bins, (f + 1) * n_bins), so one
        # bincount covers every feature
        self.flat_bins = bins + np.arange(d) * self.n_bins   # (n, d)
        self.thresholds = thresholds    # (d, n_thr)
        self.max_depth = max_depth
        self.fitted = np.empty(bins.shape[0])  # leaf value of each training row
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _leaf(self, node, idx, value):
        self.value[node] = value
        self.fitted[idx] = value
        return node

    def build(self, idx, resid, depth):
        node = self._new_node()
        n = idx.shape[0]
        r = resid[idx]
        total = r.sum()
        if depth >= self.max_depth or n < 2:
            return self._leaf(node, idx, total / n)
        d, n_thr = self.thresholds.shape
        b = self.flat_bins[idx]
        size = d * self.n_bins
        counts = np.bincount(b.ravel(), minlength=size).reshape(d, self.n_bins)
        sums = np.bincount(b.ravel(), weights=np.repeat(r, d),
                           minlength=size).reshape(d, self.n_bins)
        nl = np.cumsum(counts, axis=1)[:, :n_thr]
        sl = np.cumsum(sums, axis=1)[:, :n_thr]
        nr = n - nl
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = sl * sl / nl + (total - sl) ** 2 / nr - total * total / n
        gain[(nl == 0) | (nr == 0)] = -np.inf
        # row-major argmax: the lowest feature, then the lowest threshold
        f, k = divmod(int(np.argmax(gain)), n_thr)
        if not gain[f, k] > 0.0:
            return self._leaf(node, idx, total / n)
        go_left = b[:, f] <= f * self.n_bins + k
        li = self.build(idx[go_left], resid, depth + 1)
        ri = self.build(idx[~go_left], resid, depth + 1)
        self.feature[node] = f
        self.threshold[node] = float(self.thresholds[f, k])
        self.left[node] = li
        self.right[node] = ri
        return node

    def freeze(self):
        return Tree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            value=np.array(self.value, dtype=np.float64),
        )


def fit_ensemble(X, y, n_trees=200, max_depth=4, shrinkage=0.1):
    """Fit boosted trees on (X, y); returns (ensemble, per-round train MSE)."""
    if n_trees < 1 or max_depth < 0 or not shrinkage > 0.0:
        raise ConfigError(f"need n_trees >= 1, max_depth >= 0 and shrinkage > 0, got "
                          f"{n_trees}, {max_depth} and {shrinkage}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < 10:
        raise DataError(f"need at least 10 rows, got {X.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise DataError("targets must be finite")
    base = float(y.mean())
    if np.all(y == y[0]):
        return TreeEnsemble(base, [], shrinkage, max_depth, 0, X.shape[1]), []

    qs = np.arange(1, _N_THRESHOLDS + 1) / (_N_THRESHOLDS + 1)
    thresholds = np.quantile(X, qs, axis=0).T          # (d, n_thr)
    bins = np.empty(X.shape, dtype=np.int64)
    for f in range(X.shape[1]):
        # bin b means thresholds[f, k] >= x exactly for k >= b
        bins[:, f] = np.searchsorted(thresholds[f], X[:, f], side="left")

    F = np.full(X.shape[0], base)
    trees, mse_history = [], []
    all_idx = np.arange(X.shape[0])
    for _ in range(n_trees):
        resid = y - F
        builder = _TreeBuilder(bins, thresholds, max_depth)
        builder.build(all_idx, resid, 0)
        trees.append(builder.freeze())
        # bins[:, f] <= k exactly when x <= thresholds[f, k], so each training
        # row's leaf is the one the tree routes it to
        F = F + shrinkage * builder.fitted
        mse_history.append(float(np.mean((y - F) ** 2)))
    ensemble = TreeEnsemble(base, trees, shrinkage, max_depth, n_trees, X.shape[1])
    return ensemble, mse_history


def _predict_block(ensemble, X):
    p = ensemble.packed
    n, d = X.shape
    x = X.ravel()
    row = (np.arange(n, dtype=np.intp) * d)[:, None]
    node = np.broadcast_to(p.roots, (n, p.roots.shape[0]))   # (n, n_trees)
    for _ in range(p.depth):
        go_left = x[row + p.feature[node]] <= p.threshold[node]
        node = p.child[2 * node + 1 - go_left]
    # out += shrinkage * leaf_k for k = 0, 1, ...: accumulate runs left to
    # right, the order of a per-tree loop
    terms = np.empty((n, node.shape[1] + 1))
    terms[:, 0] = ensemble.base_prediction
    np.multiply(ensemble.shrinkage, p.value[node], out=terms[:, 1:])
    return np.add.accumulate(terms, axis=1)[:, -1]


def predict_ensemble(ensemble, X):
    """base + shrinkage * sum of tree outputs; accepts (d,) or (n, d)."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != ensemble.d:
        raise ValueError(f"input dim {X.shape[1]} does not match model dim {ensemble.d}")
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _PREDICT_BLOCK):
        out[lo:lo + _PREDICT_BLOCK] = _predict_block(ensemble, X[lo:lo + _PREDICT_BLOCK])
    return out[0] if single else out


def r2_score(predictions, targets):
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.shape[0] < 2:
        raise ValueError("need two equal-length vectors of at least 2 values")
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise NumericalError("R^2 undefined for zero-variance targets")
    ss_res = float(np.sum((t - p) ** 2))
    return 1.0 - ss_res / ss_tot


def save_ensemble(path, ensemble):
    """Write the surrogate file, a data.write_binary container whose payload
    is u32 d, n_trees, max_depth, f8 shrinkage, base prediction, then per tree
    a u32 node count and its feature, threshold, left, right, value arrays."""
    chunks = [struct.pack("<IIIdd", ensemble.d, len(ensemble.trees), ensemble.max_depth,
                          ensemble.shrinkage, ensemble.base_prediction)]
    for tree in ensemble.trees:
        chunks += [struct.pack("<I", tree.feature.shape[0]),
                   np.ascontiguousarray(tree.feature, dtype="<i4").tobytes(),
                   np.ascontiguousarray(tree.threshold, dtype="<f8").tobytes(),
                   np.ascontiguousarray(tree.left, dtype="<i4").tobytes(),
                   np.ascontiguousarray(tree.right, dtype="<i4").tobytes(),
                   np.ascontiguousarray(tree.value, dtype="<f8").tobytes()]
    write_binary(path, _MAGIC, _FORMAT_VERSION, chunks)


def load_ensemble(path):
    r = BinaryReader(path, _MAGIC, _FORMAT_VERSION, "surrogate")
    d, n_trees, max_depth = r.unpack("<III")
    shrinkage, base = r.unpack("<dd")
    trees = []
    for _ in range(n_trees):
        (n_nodes,) = r.unpack("<I")
        trees.append(Tree(
            feature=r.array("<i4", n_nodes),
            threshold=r.array("<f8", n_nodes),
            left=r.array("<i4", n_nodes),
            right=r.array("<i4", n_nodes),
            value=r.array("<f8", n_nodes),
        ))
    r.finish()
    try:
        return TreeEnsemble(base, trees, shrinkage, max_depth, n_trees, d)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
