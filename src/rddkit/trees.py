"""Gradient-boosted regression trees with squared loss.

Greedy axis-aligned splits chosen by variance reduction over 32 per-feature
quantile thresholds, leaves predicting the mean residual, shrinkage applied
per round. The model is a step function of the input, so it has no useful
gradient anywhere; callers treat it as a black box. Fitting is fully
deterministic: candidate thresholds come from quantiles and split-gain ties
break toward the lowest feature index, then the lowest threshold.
"""

import struct
from dataclasses import dataclass

import numpy as np

from rddkit.data import BinaryReader
from rddkit.exceptions import DataError, NumericalError

_MAGIC = b"RDDT"
_FORMAT_VERSION = 1


@dataclass
class Tree:
    feature: np.ndarray    # int32, -1 marks a leaf
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    value: np.ndarray      # float64, meaningful at leaves


@dataclass
class TreeEnsemble:
    base_prediction: float
    trees: list
    shrinkage: float
    max_depth: int
    n_trees: int
    d: int


def _tree_predict(tree, X):
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        internal = feat >= 0
        if not internal.any():
            break
        rows = np.nonzero(internal)[0]
        nd = node[rows]
        go_left = X[rows, feat[rows]] <= tree.threshold[nd]
        node[rows] = np.where(go_left, tree.left[nd], tree.right[nd])
    return tree.value[node]


class _TreeBuilder:
    def __init__(self, bins, thresholds, max_depth):
        self.bins = bins                # (n, d) int threshold-bin index per sample
        self.thresholds = thresholds    # (d, n_thr)
        self.max_depth = max_depth
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def build(self, idx, resid, depth):
        node = self._new_node()
        n = idx.shape[0]
        total = resid[idx].sum()
        if depth >= self.max_depth or n < 2:
            self.value[node] = total / n
            return node
        n_thr = self.thresholds.shape[1]
        best = (0.0, -1, -1)  # gain, feature, threshold index
        parent_score = total * total / n
        for f in range(self.bins.shape[1]):
            b = self.bins[idx, f]
            counts = np.bincount(b, minlength=n_thr + 1)[: n_thr + 1]
            sums = np.bincount(b, weights=resid[idx], minlength=n_thr + 1)[: n_thr + 1]
            nl = np.cumsum(counts)[:n_thr]
            sl = np.cumsum(sums)[:n_thr]
            nr = n - nl
            valid = (nl > 0) & (nr > 0)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = sl * sl / nl + (total - sl) ** 2 / nr - parent_score
            gain[~valid] = -np.inf
            k = int(np.argmax(gain))
            if gain[k] > best[0]:
                best = (float(gain[k]), f, k)
        if best[1] < 0:
            self.value[node] = total / n
            return node
        _, f, k = best
        go_left = self.bins[idx, f] <= k
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


def fit_ensemble(X, y, n_trees=200, max_depth=4, shrinkage=0.1, n_thresholds=32):
    """Fit boosted trees on (X, y); returns (ensemble, per-round train MSE)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < 10:
        raise ValueError(f"need at least 10 rows, got {X.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    base = float(y.mean())
    if np.all(y == y[0]):
        return TreeEnsemble(base, [], shrinkage, max_depth, 0, X.shape[1]), []

    qs = np.arange(1, n_thresholds + 1) / (n_thresholds + 1)
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
        tree = builder.freeze()
        trees.append(tree)
        F = F + shrinkage * _tree_predict(tree, X)
        mse_history.append(float(np.mean((y - F) ** 2)))
    ensemble = TreeEnsemble(base, trees, shrinkage, max_depth, n_trees, X.shape[1])
    return ensemble, mse_history


def predict_ensemble(ensemble, X):
    """base + shrinkage * sum of tree outputs; accepts (d,) or (n, d)."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != ensemble.d:
        raise ValueError(f"input dim {X.shape[1]} does not match model dim {ensemble.d}")
    out = np.full(X.shape[0], ensemble.base_prediction)
    for tree in ensemble.trees:
        out += ensemble.shrinkage * _tree_predict(tree, X)
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
    """Binary serialization: magic "RDDT", version, header, per-tree arrays."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _FORMAT_VERSION))
        f.write(struct.pack("<III", ensemble.d, len(ensemble.trees), ensemble.max_depth))
        f.write(struct.pack("<dd", ensemble.shrinkage, ensemble.base_prediction))
        for tree in ensemble.trees:
            f.write(struct.pack("<I", tree.feature.shape[0]))
            f.write(np.ascontiguousarray(tree.feature, dtype="<i4").tobytes())
            f.write(np.ascontiguousarray(tree.threshold, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(tree.left, dtype="<i4").tobytes())
            f.write(np.ascontiguousarray(tree.right, dtype="<i4").tobytes())
            f.write(np.ascontiguousarray(tree.value, dtype="<f8").tobytes())


def load_ensemble(path):
    r = BinaryReader(path)
    if r.unpack("4s")[0] != _MAGIC:
        raise DataError(f"{path}: not an ensemble file (bad magic)")
    (version,) = r.unpack("<I")
    if version != _FORMAT_VERSION:
        raise DataError(f"{path}: unsupported ensemble format version {version}")
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
    return TreeEnsemble(base, trees, shrinkage, max_depth, n_trees, d)
