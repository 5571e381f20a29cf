"""Gradient-boosted regression trees with squared loss.

Greedy axis-aligned splits chosen by variance reduction over 32 per-feature
quantile thresholds, leaves predicting the mean residual, shrinkage applied
per round. The model is a step function of the input, so it has no useful
gradient anywhere; callers treat it as a black box. Fitting is fully
deterministic: candidate thresholds come from quantiles and split-gain ties
break toward the lowest feature index, then the lowest threshold. A gain
within _GAIN_TIE (1e-9) times r @ r of the best, r the node's residuals,
ties with it. Each gain term is at most r @ r (Cauchy-Schwarz), and each
feature adds the residuals into its bin sums in its own order, which moves
a term by at most about 2 n eps (r @ r) for n rows. So splits that part the
rows alike, whose gains are equal in exact arithmetic, tie up to about 10^6
rows, and the lowest wins whatever the rounding. Inputs and targets must be
finite. A tree is its node list in preorder, which alone fixes its shape,
so no child indices are kept or stored; a list that is not one binary tree
in preorder is a DataError.

Prediction reads bin tables built once per ensemble, after QuickScorer
(Lucchese et al. 2015) instead of descending each tree node by node. Each
tree's leaves are numbered left to right, one bit each. Per feature, the
sorted distinct split thresholds cut the line into bins, and the table row
of a bin holds, per tree, the AND of the masks that clear the left-subtree
leaves of every split the bin leaves to the right. A row's bin is
searchsorted(cuts, x, side="left"), so x <= cuts[r] exactly when bin <= r,
and NaN sorts past every cut and goes right as x <= threshold does. ANDing
one table row per feature leaves a tree's exit leaf as its lowest set bit:
every leaf left of it was cleared by a split the row left to the right, and
no split on its path cleared it. A NaN threshold has no rank, so loading
one is a DataError.

The masks are words of the narrowest unsigned type that holds the leaves of
the largest tree: uint8, 16 or 32 up to 8, 16 or 32 leaves, else uint64.
Each tree takes the fewest words that hold its own leaves, so one deep tree
does not widen the others; the tables and leaf values grow with the leaves
of each tree, not with the largest tree times the tree count. A split's
left subtree spans a run of its tree's words: the two end words take a
mask and the words between are cleared as one run, so building the tables
costs time and memory in proportion to the splits and words. The leaf
values are multiplied by the shrinkage once, when the tables are built: the
same product a walk makes per row.

A block's exit leaves are taken tree-major, (n_trees + 1, rows) with the
base prediction first, and summed down the tree axis. Along an axis other
than the fastest one NumPy adds one row after another, so that sum runs in
tree order and predictions are bit-identical to a node-by-node walk. A lone
row's tree axis is the fastest one, which np.add.reduce would sum pairwise;
a one-row block goes through np.add.accumulate, which runs in order along
any axis.

Rows are predicted in blocks of as many rows as keep the largest per-block
array within 127 KiB: the float64 terms, 80 rows at 200 trees, or the words
of every tree where trees of over 64 leaves make them more. Every
temporary of a call then stays under glibc's 128 KiB mmap threshold and
comes from reused heap memory; arrays of megabytes, which blocks of
thousands of rows would make, are mapped and unmapped by the allocator on
every call, and their pages faulted in afresh. On 320 rows, 80-row blocks
were faster than 40-row ones.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from rddkit.data import BinaryReader, write_binary
from rddkit.exceptions import ConfigError, DataError, NumericalError

_MAGIC = b"RDDT"
_FORMAT_VERSION = 3
_N_THRESHOLDS = 32    # per-feature quantile thresholds a split may use
_GAIN_TIE = 1e-9      # a gain within this share of r @ r of the best ties with it


@dataclass
class Tree:
    """Nodes in preorder: a split, its left subtree, then its right subtree."""
    feature: np.ndarray    # int32, -1 marks a leaf
    threshold: np.ndarray  # float64
    value: np.ndarray      # float64, meaningful at leaves


# bytes of the largest array of a predict block (see _predict_row_bytes).
# Kept below glibc's 128 KiB mmap threshold, so a block's temporaries are
# reused heap memory, not pages mapped and faulted in afresh on every call
_PREDICT_BLOCK_BYTES = 127 * 1024

_WORD_BITS = (8, 16, 32, 64)   # the unsigned word widths a leaf mask may take

# _LOW_BITS[b] has bits 0 .. b-1 set, for b = 0 .. 64
_LOW_BITS = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)


@dataclass
class _BinTables:
    """The ensemble as per-feature threshold bins and per-tree leaf bitmasks.

    Masks are words of ``dtype``, the narrowest of uint8, 16, 32 and 64 that
    holds the leaves of the tree with the most, and uint64 past 64 leaves.
    Tree k has its own count of words, the fewest that hold its leaves; leaf
    j is bit j % bits of its word j // bits. A table row holds word 0 of
    tree k at column k, and ``extra[w - 1] = (trees, lo)`` places word w of
    the listed trees, those with more than w words in ascending order, at
    columns lo, lo + 1, ... ``cuts[i]`` holds the sorted distinct
    thresholds of the nodes that split on feature ``features[i]``, and
    ``tables[i][b]`` holds per column the AND of the masks that clear the
    left-subtree leaves of every such node whose threshold ranks below b.
    Leaf j of tree k predicts ``value[offset[k] + 1 + j]``, which is the
    shrinkage times the leaf's value.
    """

    features: list      # the features at least one node splits on
    cuts: list          # float64 arrays, one per entry of features
    tables: list        # (len(cuts[i]) + 1, columns) arrays of dtype words
    value: np.ndarray   # float64, bits slots per word of each tree
    offset: np.ndarray  # intp (n_trees,), the slot before tree k's first
    extra: list         # (trees, lo) for each word index w >= 1
    dtype: np.dtype     # the word
    columns: int        # words over all trees


def _bin_tables(trees, d, max_depth, shrinkage):
    """Build the bin tables of the trees; DataError, before any is allocated, on a
    malformed tree, one deeper than max_depth or a feature of over _N_THRESHOLDS cuts."""
    n_trees = len(trees)
    sizes = np.array([t.feature.shape[0] for t in trees], dtype=np.intp)
    if np.any(sizes == 0):
        raise DataError(f"tree {int(np.argmax(sizes == 0))}: no nodes")
    roots = np.cumsum(sizes) - sizes

    def flat(name, dtype):
        return np.concatenate([getattr(t, name) for t in trees] + [np.empty(0, dtype)]
                              ).astype(dtype)

    feature, threshold = flat("feature", np.intp), flat("threshold", np.float64)
    value = flat("value", np.float64)
    tree_of = np.repeat(np.arange(n_trees), sizes)
    internal = feature >= 0
    node = np.arange(feature.shape[0], dtype=np.intp)

    def before(x):
        """Per node, the sum of x over the nodes before it in its tree."""
        total = np.cumsum(x) - x
        return total - total[roots][tree_of]

    # each split opens one more subtree and each leaf closes one; n_open[i]
    # subtrees are open as node i fills one of them. The nodes are one tree
    # in preorder exactly when the count first reaches zero at the last node
    step = np.where(internal, 1, -1)
    n_open = 1 + before(step)
    last = node == (roots + sizes - 1)[tree_of]
    for bad, message in (
            ((n_open + step == 0) != last, "nodes are not one binary tree in preorder"),
            (internal & (feature >= d), f"feature index outside the {d} inputs"),
            (internal & np.isnan(threshold), "NaN threshold at an internal node"),
            (~internal & ~np.isfinite(value), "non-finite leaf value")):
        hit = tree_of[bad]
        if hit.size:
            raise DataError(f"tree {int(hit.min())}: {message}")

    # a split's left subtree follows it and ends where the count first drops
    # back to the split's own: its right child is the next node of its tree
    # with the same count (lexsort is stable, so ties keep node order)
    order = np.lexsort((n_open, tree_of))
    succ = np.empty_like(order)
    succ[order[:-1]] = order[1:]
    # a node's leaf number is the count of leaves before it, so a split's left
    # subtree holds the leaves from its own number to its right child's
    leaf_no = before(~internal)
    s_node = node[internal]
    s_tree, s_lo, s_mid = tree_of[s_node], leaf_no[s_node], leaf_no[succ[s_node]]
    # depth, the hops to the root: from each node to its parent (a split's
    # children are the next node and succ), then doubling the jumps
    up = node.copy()
    up[s_node + 1] = up[succ[s_node]] = s_node
    depth = (up != node).astype(np.intp)
    while np.any(up[up] != up):
        depth, up = depth + depth[up], up[up]
    deep = tree_of[depth > max_depth]
    if deep.size:
        raise DataError(f"tree {int(deep.min())}: deeper than the stored max_depth {max_depth}")
    s_feature, s_threshold = feature[s_node], threshold[s_node]
    features = [int(f) for f in np.unique(s_feature)]
    cuts = [np.unique(s_threshold[s_feature == f]) for f in features]
    wide = [f for f, cut in zip(features, cuts) if cut.shape[0] > _N_THRESHOLDS]
    if wide:
        raise DataError(f"feature {wide[0]}: more than {_N_THRESHOLDS} distinct split thresholds")

    leaves = (sizes + 1) // 2    # a binary tree of n nodes has (n + 1) / 2
    bits = next((b for b in _WORD_BITS if b >= leaves.max(initial=1)), 64)
    dtype = np.dtype(f"uint{bits}")
    words = -(-leaves // bits)
    slots = bits * words
    offset = np.cumsum(slots) - slots - 1
    leaf_values = np.zeros(int(slots.sum()))
    leaf_values[offset[tree_of[~internal]] + 1 + leaf_no[~internal]] = shrinkage * value[~internal]
    extra, columns = [], n_trees
    for w in range(1, int(words.max(initial=1))):
        more = np.flatnonzero(words > w)
        extra.append((more, columns))
        columns += more.shape[0]
    # tree k's words in order are positions start[k] .. start[k] + words[k] - 1;
    # the columns hold them word-major, tree-minor, so column[p], the column
    # of position p, is its rank by (word, tree)
    start = np.cumsum(words) - words
    owner = np.repeat(np.arange(n_trees), words)
    column = np.lexsort((owner, np.arange(columns) - start[owner])).argsort()
    # the mask of a split keeps every bit but its left subtree's leaves
    # [lo, mid): the words at the two ends of that run take a mask, and the
    # words between them are cleared whole
    first, last = s_lo // bits, (s_mid - 1) // bits
    two = np.flatnonzero(last > first)
    split = np.concatenate([np.arange(s_node.shape[0]), two])    # one entry per end word
    word = np.concatenate([first, last[two]])
    at = column[start[s_tree[split]] + word]
    masks = ~(_LOW_BITS[np.clip(s_mid[split] - bits * word, 0, bits)]
              ^ _LOW_BITS[np.clip(s_lo[split] - bits * word, 0, bits)]).astype(dtype)
    inner = np.flatnonzero(last - first > 1)
    tables = []
    for f, cut in zip(features, cuts):
        table = np.full((cut.shape[0] + 1, columns), ~dtype.type(0))
        # a split of rank r goes right for every bin above r
        on = s_feature[split] == f
        np.bitwise_and.at(table, (np.searchsorted(cut, s_threshold[split[on]]) + 1, at[on]),
                          masks[on])
        runs = inner[s_feature[inner] == f]
        if runs.size:
            # +1 where a run of whole words starts and -1 where it ends, by
            # position: a word is cleared where the running sum is positive
            edges = np.zeros((cut.shape[0] + 1, columns), dtype=np.intp)
            row, base = np.searchsorted(cut, s_threshold[runs]) + 1, start[s_tree[runs]]
            np.add.at(edges, (row, base + first[runs] + 1), 1)
            np.add.at(edges, (row, base + last[runs]), -1)
            r, p = np.nonzero(np.cumsum(edges, axis=1))
            table[r, column[p]] = 0
        np.bitwise_and.accumulate(table, axis=0, out=table)
        tables.append(table)
    return _BinTables(features, cuts, tables, leaf_values, offset, extra, dtype, columns)


@dataclass
class TreeEnsemble:
    base_prediction: float
    trees: list
    shrinkage: float
    max_depth: int
    d: int
    bin_tables: _BinTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.bin_tables = _bin_tables(self.trees, self.d, self.max_depth, self.shrinkage)

    @property
    def n_trees(self):
        return len(self.trees)


def fit_ensemble(X, y, n_trees=200, max_depth=4, shrinkage=0.1):
    """Fit boosted trees on (X, y); returns (ensemble, per-round train MSE)."""
    if n_trees < 1 or max_depth < 0 or not 0.0 < shrinkage < np.inf:
        raise ConfigError(f"need n_trees >= 1, max_depth >= 0 and a finite shrinkage > 0, "
                          f"got {n_trees}, {max_depth} and {shrinkage}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < 10:
        raise DataError(f"need at least 10 rows, got {X.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise DataError("targets must be finite")
    if not np.all(np.isfinite(X)):
        raise DataError("inputs must be finite")
    base = float(y.mean())
    if np.all(y == y[0]):
        return TreeEnsemble(base, [], shrinkage, max_depth, X.shape[1]), []

    d, n_thr = X.shape[1], _N_THRESHOLDS
    n_bins = n_thr + 1
    qs = np.arange(1, n_thr + 1) / n_bins
    thresholds = np.quantile(X, qs, axis=0).T          # (d, n_thr)
    bins = np.empty(X.shape, dtype=np.int64)
    for f in range(d):
        # bin f * n_bins + b means thresholds[f, k] >= x exactly for k >= b;
        # feature f's bins fill [f * n_bins, (f + 1) * n_bins), so one
        # bincount covers every feature
        bins[:, f] = f * n_bins + np.searchsorted(thresholds[f], X[:, f], side="left")

    F = np.full(X.shape[0], base)
    fitted = np.empty(X.shape[0])   # leaf value of each training row
    trees, mse_history = [], []
    # a threshold with no rows on one side divides by zero; its gain is set
    # to -inf after the division
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n_trees):
            resid = y - F
            feature, threshold, value = [], [], []
            # (rows, depth); right is pushed before left, so nodes come in preorder
            stack = [(np.arange(X.shape[0]), 0)]
            while stack:
                idx, depth = stack.pop()
                n = idx.shape[0]
                r = resid[idx]
                total = r.sum()
                f = -1
                if depth < max_depth and n >= 2:
                    b = bins[idx]
                    # row counts and residual sums per bin, then left of each threshold
                    per_bin = np.concatenate((
                        np.bincount(b.ravel(), minlength=d * n_bins),
                        np.bincount(b.ravel(), weights=r.repeat(d), minlength=d * n_bins)))
                    nl, sl = per_bin.reshape(2, d, n_bins).cumsum(axis=2)[:, :, :n_thr]
                    nr = n - nl
                    gain = sl * sl / nl + (total - sl) ** 2 / nr - total * total / n
                    gain[(nl == 0) | (nr == 0)] = -np.inf
                    # row-major argmax over the ties: the lowest feature, then the
                    # lowest threshold
                    tie = gain >= gain.max() - _GAIN_TIE * (r @ r)
                    f, k = divmod(int(tie.argmax()), n_thr)
                    if not gain[f, k] > 0.0:
                        f = -1
                feature.append(f)
                if f < 0:
                    threshold.append(0.0)
                    value.append(total / n)
                    fitted[idx] = total / n
                    continue
                threshold.append(float(thresholds[f, k]))
                value.append(0.0)
                go_left = b[:, f] <= f * n_bins + k
                stack.append((idx[~go_left], depth + 1))
                stack.append((idx[go_left], depth + 1))
            trees.append(Tree(np.array(feature, dtype=np.int32), np.array(threshold),
                              np.array(value)))
            # bins[:, f] <= f * n_bins + k exactly when x <= thresholds[f, k], so
            # each training row's leaf is the one the tree routes it to
            F = F + shrinkage * fitted
            mse_history.append(float(np.mean((y - F) ** 2)))
            if not np.isfinite(mse_history[-1]):
                raise NumericalError(f"boosting diverged at tree {len(trees)}: train MSE "
                                     f"{mse_history[-1]} (shrinkage {shrinkage})")
    ensemble = TreeEnsemble(base, trees, shrinkage, max_depth, X.shape[1])
    return ensemble, mse_history


def _predict_block(ensemble, X):
    """base + the leaf each row of X reaches in each tree, summed in tree order."""
    t = ensemble.bin_tables
    n_trees = t.offset.shape[0]
    words = np.full((X.shape[0], t.columns), ~t.dtype.type(0))
    rows = np.empty_like(words)
    for f, cut, table in zip(t.features, t.cuts, t.tables):
        # x <= cut[r] exactly when bin <= r, and NaN sorts past every cut,
        # so each row gets the masks of the splits it leaves to the right.
        # A bin is at most len(cut), so mode="clip" never clips; it spares
        # take the bounds-checked copy that mode="raise" makes of out=
        table.take(cut.searchsorted(X[:, f], side="left"), axis=0, out=rows, mode="clip")
        words &= rows
    # the exit leaf is the lowest set bit, in the tree's first non-zero word
    word, base = words[:, :n_trees], t.offset[None]
    if t.extra:
        base = np.repeat(base, X.shape[0], axis=0)
    for w, (more, lo) in enumerate(t.extra, 1):
        empty = word[:, more] == 0
        word[:, more] = np.where(empty, words[:, lo:lo + more.shape[0]], word[:, more])
        base[:, more] = np.where(empty, t.offset[more] + 8 * t.dtype.itemsize * w, base[:, more])
    # tree-major from here: (n_trees, rows). NumPy's bitwise_count runs
    # several times slower on uint16 than on uint8 or uint32, so 16-bit words
    # are widened. popcount(w ^ (w - 1)) is one more than the index of w's
    # lowest set bit
    word = word.T.astype(np.uint32 if t.dtype == np.uint16 else t.dtype, order="C")
    pos = np.bitwise_count(np.bitwise_xor(word, word - 1, out=word)).astype(np.intp)
    pos += base.T
    terms = np.empty((n_trees + 1, X.shape[0]))
    terms[0] = ensemble.base_prediction
    t.value.take(pos, out=terms[1:], mode="clip")
    # add the trees in order down axis 0, as a per-tree loop does. NumPy adds
    # along an axis other than the fastest one row after row, so with two or
    # more columns reduce is that loop; along the fastest axis, which a lone
    # column's axis 0 is, it adds pairwise, so one row goes through accumulate
    if X.shape[0] > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _predict_row_bytes(t):
    """Bytes per row of the largest per-block array of the bin tables t: the
    float64 terms, n_trees + 1 per row, or the words of every column."""
    return max(8 * (t.offset.shape[0] + 1), t.dtype.itemsize * t.columns)


def _predict_block_rows(t):
    """Rows per predict block: the largest per-block array fits _PREDICT_BLOCK_BYTES
    (at least one row)."""
    return max(1, _PREDICT_BLOCK_BYTES // _predict_row_bytes(t))


def predict_ensemble(ensemble, X):
    """base + shrinkage * sum of tree outputs, one per row of the (n, d) batch X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.d:
        raise ValueError(f"expected (n, {ensemble.d}) inputs for the ensemble, got shape {X.shape}")
    out = np.empty(X.shape[0])
    block = _predict_block_rows(ensemble.bin_tables)
    for lo in range(0, X.shape[0], block):
        out[lo:lo + block] = _predict_block(ensemble, X[lo:lo + block])
    return out


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
    a u32 node count and its preorder feature (i4), threshold (f8) and value
    (f8) arrays."""
    chunks = [struct.pack("<IIIdd", ensemble.d, len(ensemble.trees), ensemble.max_depth,
                          ensemble.shrinkage, ensemble.base_prediction)]
    for tree in ensemble.trees:
        chunks += [struct.pack("<I", tree.feature.shape[0]),
                   np.ascontiguousarray(tree.feature, dtype="<i4").tobytes(),
                   np.ascontiguousarray(tree.threshold, dtype="<f8").tobytes(),
                   np.ascontiguousarray(tree.value, dtype="<f8").tobytes()]
    write_binary(path, _MAGIC, _FORMAT_VERSION, chunks)


def load_ensemble(path):
    r = BinaryReader(path, _MAGIC, _FORMAT_VERSION, "surrogate")
    d, n_trees, max_depth = r.unpack("<III")
    shrinkage, base = r.unpack("<dd")
    if not (np.isfinite(shrinkage) and np.isfinite(base)):
        raise DataError(f"{path}: non-finite shrinkage {shrinkage} or base prediction {base}")
    trees = []
    for _ in range(n_trees):
        (n,) = r.unpack("<I")
        trees.append(Tree(r.array("<i4", n), r.array("<f8", n), r.array("<f8", n)))
    r.finish()
    try:
        return TreeEnsemble(base, trees, shrinkage, max_depth, d)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
