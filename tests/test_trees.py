import hashlib
import itertools
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from rddkit import trees
from rddkit.exceptions import ConfigError, DataError, NumericalError
from rddkit.trees import (
    fit_ensemble,
    load_ensemble,
    predict_ensemble,
    r2_score,
    save_ensemble,
)


def preorder_children(feature):
    """Left and right child arrays (-1 at leaves) of a preorder node list,
    decoded recursively; None if the list is not one binary tree in preorder."""
    n = len(feature)
    left, right = np.full(n, -1, dtype=np.int32), np.full(n, -1, dtype=np.int32)

    def end_of_subtree(i):
        if i >= n:
            raise IndexError(i)
        if feature[i] < 0:
            return i + 1
        left[i], right[i] = i + 1, end_of_subtree(i + 1)
        return end_of_subtree(right[i])

    try:
        complete = end_of_subtree(0) == n
    except IndexError:
        return None
    return (left, right) if complete else None


def make_regression(n, d, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 - 0.5 * X[:, 2] + noise * rng.standard_normal(n)
    return X, y


def test_single_stump_recovers_two_level_target():
    X = np.repeat([[0.0], [1.0]], 5, axis=0)
    y = np.repeat([0.0, 10.0], 5)
    ens, history = fit_ensemble(X, y, n_trees=1, max_depth=1, shrinkage=1.0)
    assert ens.base_prediction == 5.0
    assert len(ens.trees) == 1
    tree = ens.trees[0]
    assert tree.feature[0] == 0
    # the tied candidate thresholds all induce the same partition; the
    # smallest one wins
    assert tree.threshold[0] == 0.0
    pred = predict_ensemble(ens, X)
    assert np.array_equal(pred, y)


def test_zero_gain_split_is_not_taken():
    # each side of the first split has constant residuals, so every split
    # below it scores a gain of exactly 0 and the children stay leaves
    X = np.linspace(0.0, 1.0, 12)[:, None]
    y = np.where(X[:, 0] < 0.5, 0.0, 10.0)
    ens, _ = fit_ensemble(X, y, n_trees=1, max_depth=3, shrinkage=1.0)
    tree = ens.trees[0]
    assert tree.feature.tolist() == [0, -1, -1]
    assert np.array_equal(predict_ensemble(ens, X), y)


def test_depth_zero_trees_predict_the_mean():
    X, y = make_regression(50, 3, seed=1)
    ens, _ = fit_ensemble(X, y, n_trees=3, max_depth=0, shrinkage=1.0)
    pred = predict_ensemble(ens, X)
    assert np.allclose(pred, y.mean(), atol=1e-12)


def best_split_bruteforce(X, resid, n_thresholds=32):
    """Scan every (feature, quantile threshold) pair for the largest SSE drop.

    Ties resolve to the lowest feature index, then the lowest threshold
    index, matching the fitting convention.
    """
    n, d = X.shape
    qs = np.arange(1, n_thresholds + 1) / (n_thresholds + 1)
    thresholds = np.quantile(X, qs, axis=0).T
    total = resid.sum()
    parent = total * total / n
    best = (0.0, -1, -1)
    for f in range(d):
        for k in range(n_thresholds):
            mask = X[:, f] <= thresholds[f, k]
            nl = int(mask.sum())
            if nl == 0 or nl == n:
                continue
            sl = resid[mask].sum()
            sr = total - sl
            gain = sl * sl / nl + sr * sr / (n - nl) - parent
            if gain > best[0]:
                best = (gain, f, k)
    return best, thresholds


def test_root_split_matches_exhaustive_search():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 5))
        y = rng.standard_normal(200) + 2.0 * (X[:, seed % 5] > 0.3)
        ens, _ = fit_ensemble(X, y, n_trees=1, max_depth=1, shrinkage=1.0)
        tree = ens.trees[0]
        resid = y - y.mean()
        (gain, f, k), thresholds = best_split_bruteforce(X, resid)
        assert tree.feature[0] == f
        assert tree.threshold[0] == thresholds[f, k]
        # leaves carry the mean residual of their side
        mask = X[:, f] <= thresholds[f, k]
        left, right = preorder_children(tree.feature)
        left_leaf = tree.value[left[0]]
        right_leaf = tree.value[right[0]]
        assert left_leaf == pytest.approx(resid[mask].mean(), rel=1e-12)
        assert right_leaf == pytest.approx(resid[~mask].mean(), rel=1e-12)


def test_split_tie_breaks_to_lowest_feature():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(100)
    X = np.column_stack([x0, x0.copy()])  # duplicate feature
    y = 1.5 * x0 + 0.1 * rng.standard_normal(100)
    ens, _ = fit_ensemble(X, y, n_trees=1, max_depth=1, shrinkage=1.0)
    assert ens.trees[0].feature[0] == 0


def test_split_tie_breaks_to_lowest_feature_whatever_the_rounding():
    # two features of different values that both put the first 17 rows below
    # 1 and the last 17 above 2: their splits there part the rows alike, so
    # the gains are equal in exact arithmetic, but each feature's bins add the
    # residuals in its own order, and the rounding of the two gains differs
    for seed in range(40):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.concatenate([rng.uniform(0, 1, 17), rng.uniform(2, 3, 17)])
                             for _ in range(2)])
        y = np.repeat([0.0, 1.0], 17) + 0.1 * rng.standard_normal(34)
        ens, _ = fit_ensemble(X, y, n_trees=1, max_depth=1)
        assert ens.trees[0].feature[0] == 0, seed


def test_mse_monotone_in_shrinkage_range():
    X, y = make_regression(300, 3, seed=4)
    for shrinkage in (0.1, 1.0, 2.0):
        _, history = fit_ensemble(X, y, n_trees=50, max_depth=3, shrinkage=shrinkage)
        h = np.array(history)
        assert np.all(np.diff(h) <= 1e-12 * np.maximum(1.0, h[:-1]))
        if shrinkage < 2.0:
            assert h[-1] < h[0]
        else:
            # the update reflects residuals about the leaf mean, leaving the
            # squared error exactly unchanged round over round
            assert np.allclose(h, h[0], rtol=1e-12)


def test_heldout_r2_on_learnable_function():
    X, y = make_regression(1000, 4, seed=9)
    ens, history = fit_ensemble(X[:800], y[:800], n_trees=200, max_depth=4,
                                shrinkage=0.1)
    pred = predict_ensemble(ens, X[800:])
    assert r2_score(pred, y[800:]) > 0.9
    assert history[-1] < history[0]


def walk(tree, children, row):
    """One row down one tree, node by node."""
    left, right = children
    node = 0
    while tree.feature[node] >= 0:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = left[node]
        else:
            node = right[node]
    return tree.value[node]


def manual_predict(ens, X):
    """The oracle: a per-row walk, trees accumulated in order."""
    manual = np.full(X.shape[0], ens.base_prediction)
    for tree in ens.trees:
        children = preorder_children(tree.feature)
        manual += ens.shrinkage * np.array([walk(tree, children, row) for row in X])
    return manual


def test_prediction_matches_manual_traversal():
    X, y = make_regression(150, 3, seed=2)
    ens, _ = fit_ensemble(X, y, n_trees=20, max_depth=4, shrinkage=0.3)
    assert np.array_equal(predict_ensemble(ens, X), manual_predict(ens, X))


def test_prediction_matches_oracle_on_edge_inputs():
    X, y = make_regression(150, 3, seed=8)
    ens, _ = fit_ensemble(X, y, n_trees=15, max_depth=4, shrinkage=0.3)
    rows = [np.full(3, v) for v in (np.nan, np.inf, -np.inf)]
    rows += [np.array([np.nan, 0.2, -np.inf]), np.array([np.inf, np.nan, 0.1])]
    # every split threshold, hit exactly, on its own feature
    for tree in ens.trees:
        for f, thr in zip(tree.feature, tree.threshold):
            if f >= 0:
                row = X[0].copy()
                row[f] = thr
                rows.append(row)
    E = np.array(rows)
    pred = predict_ensemble(ens, E)
    assert np.array_equal(pred, manual_predict(ens, E))
    assert predict_ensemble(ens, E[3:4]) == pred[3]


def test_prediction_matches_oracle_on_shallow_leaves():
    # few rows and deep trees: most leaves stop above max_depth
    X, y = make_regression(12, 3, seed=4)
    ens, _ = fit_ensemble(X, y, n_trees=10, max_depth=8, shrinkage=0.5)

    def leaf_depths(tree, children, node=0, depth=0):
        if tree.feature[node] < 0:
            return [depth]
        return (leaf_depths(tree, children, children[0][node], depth + 1)
                + leaf_depths(tree, children, children[1][node], depth + 1))

    depths = [leaf_depths(tree, preorder_children(tree.feature)) for tree in ens.trees]
    assert max(max(d) for d in depths) < 8
    assert any(min(d) < max(d) for d in depths)
    Xt = np.random.default_rng(1).uniform(-1.2, 1.2, size=(60, 3))
    assert np.array_equal(predict_ensemble(ens, Xt), manual_predict(ens, Xt))


def test_prediction_matches_oracle_past_one_block(tmp_path):
    X, y = make_regression(200, 3, seed=12)
    ens, _ = fit_ensemble(X, y, n_trees=6, max_depth=3, shrinkage=0.4)
    block = trees._predict_block_rows(ens.bin_tables)
    Xt = np.random.default_rng(2).uniform(-1, 1, size=(block + 37, 3))
    expected = manual_predict(ens, Xt)
    assert np.array_equal(predict_ensemble(ens, Xt), expected)
    path = tmp_path / "m.rddt"
    save_ensemble(path, ens)
    assert np.array_equal(predict_ensemble(load_ensemble(path), Xt), expected)


def test_prediction_temporaries_stay_small():
    # per-block arrays of at most 64 KiB keep a call's temporaries on the
    # heap; 4096-row blocks of this ensemble peak at about 20 MB
    X, y = make_regression(300, 6, seed=13)
    ens, _ = fit_ensemble(X, y, n_trees=200, max_depth=4)
    assert trees._predict_block_rows(ens.bin_tables) == 40
    Xt = np.random.default_rng(3).uniform(-1, 1, size=(4000, 6))
    tracemalloc.start()
    try:
        predict_ensemble(ens, Xt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def with_children(raw, version):
    """The bytes of an ensemble file in the layout of versions 1 and 2: each
    tree's left and right child arrays (i4) between threshold and value,
    sealed with a CRC32 for version 2 only."""
    payload, off = [raw[8:36]], 36
    for _ in range(struct.unpack_from("<I", raw, 12)[0]):
        (n,) = struct.unpack_from("<I", raw, off)
        feature = np.frombuffer(raw, dtype="<i4", count=n, offset=off + 4)
        left, right = preorder_children(feature)
        payload += [raw[off:off + 4 + 12 * n], left.astype("<i4").tobytes(),
                    right.astype("<i4").tobytes(), raw[off + 4 + 12 * n:off + 4 + 20 * n]]
        off += 4 + 20 * n
    body = raw[:4] + version.to_bytes(4, "little") + b"".join(payload)
    return body + zlib.crc32(body).to_bytes(4, "little") if version == 2 else body


def test_refit_writes_the_reference_bytes(tmp_path):
    # pinned digest: any change to split choice, tie-breaks, leaf values or
    # the file layout shows here
    rng = np.random.default_rng(2024)
    X = rng.uniform(-1, 1, size=(120, 4))
    X[:, 3] = np.round(X[:, 3] * 4) / 4      # repeated values: tied thresholds
    y = X[:, 0] * X[:, 1] + X[:, 2] ** 2 - 0.5 * X[:, 3] + 0.1 * rng.standard_normal(120)
    ens, _ = fit_ensemble(X, y, n_trees=40, max_depth=5, shrinkage=0.2)
    path = tmp_path / "m.rddt"
    save_ensemble(path, ens)
    raw = path.read_bytes()
    # the digest is of the version-1 bytes: version 2 added the trailing
    # CRC32, and version 3 dropped the child arrays, which preorder implies
    assert hashlib.sha256(with_children(raw, 1)).hexdigest() == (
        "2a3876d7ee2011770a82ec10a2dbb38aa8815430c954d121f76e3d7bb465a7fe")
    assert raw[4:8] == (3).to_bytes(4, "little")
    assert raw[-4:] == zlib.crc32(raw[:-4]).to_bytes(4, "little")


@pytest.mark.parametrize("n, d, n_trees, max_depth", [
    (96, 6, 200, 4), (120, 4, 40, 5), (50, 3, 3, 0), (200, 4, 30, 3)])
def test_last_train_mse_is_the_mse_of_the_predictions(n, d, n_trees, max_depth):
    # the fit keeps each training row's leaf value as it grows a tree; the
    # history is built from those, so it must match the bin-table predictor
    # on every training row
    X, y = make_regression(n, d, seed=n)
    X[:, -1] = np.round(X[:, -1] * 4) / 4      # repeated values: tied thresholds
    ens, history = fit_ensemble(X, y, n_trees=n_trees, max_depth=max_depth)
    assert len(history) == n_trees
    assert history[-1] == np.mean((y - predict_ensemble(ens, X)) ** 2)


def test_single_vector_prediction():
    X, y = make_regression(100, 3, seed=3)
    ens, _ = fit_ensemble(X, y, n_trees=10, max_depth=3)
    batch = predict_ensemble(ens, X[:5])
    for i in range(5):
        assert predict_ensemble(ens, X[i:i + 1]) == batch[i]
    # a single vector is not a batch; the error names the shape it got
    for bad in (X[0], np.zeros(7), np.zeros((2, 7)), X[None, :5]):
        with pytest.raises(ValueError, match=rf"expected \(n, 3\) inputs for the ensemble, "
                                             rf"got shape {re.escape(str(bad.shape))}"):
            predict_ensemble(ens, bad)


def test_fit_determinism():
    X, y = make_regression(200, 4, seed=11)
    e1, h1 = fit_ensemble(X, y, n_trees=30, max_depth=3)
    e2, h2 = fit_ensemble(X, y, n_trees=30, max_depth=3)
    assert h1 == h2
    assert np.array_equal(predict_ensemble(e1, X), predict_ensemble(e2, X))


def test_constant_targets_yield_base_only_model(tmp_path):
    X = np.random.default_rng(0).standard_normal((20, 3))
    y = np.full(20, 2.5)
    ens, history = fit_ensemble(X, y)
    assert ens.n_trees == 0
    assert history == []
    assert np.all(predict_ensemble(ens, X) == 2.5)
    assert predict_ensemble(ens, X[:1]) == 2.5
    save_ensemble(tmp_path / "c.rddt", ens)
    back = load_ensemble(tmp_path / "c.rddt")
    assert np.array_equal(predict_ensemble(back, X), manual_predict(back, X))


def test_fit_input_validation():
    X, y = make_regression(9, 3, seed=0)
    with pytest.raises(DataError):
        fit_ensemble(X, y)
    X, y = make_regression(20, 3, seed=0)
    y[3] = np.nan
    with pytest.raises(DataError):
        fit_ensemble(X, y)
    y[3] = 0.0
    for bad in ({"n_trees": 0}, {"max_depth": -1}, {"shrinkage": 0.0},
                {"shrinkage": np.nan}, {"shrinkage": np.inf}):
        with pytest.raises(ConfigError):
            fit_ensemble(X, y, **bad)
    # a finite shrinkage so large that the boosted fit overflows
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="boosting diverged"):
        fit_ensemble(X, y, shrinkage=1e300)
    # non-finite inputs: one NaN cell in a step feature used to make every
    # tree ignore that feature
    X = np.random.default_rng(3).uniform(-1, 1, size=(60, 2))
    y = np.where(X[:, 0] > 0.0, 1.0, 0.0)
    for cell in (np.nan, np.inf, -np.inf):
        Xbad = X.copy()
        Xbad[7, 0] = cell
        with pytest.raises(DataError, match="inputs must be finite"):
            fit_ensemble(Xbad, y)


def test_r2_score_values():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    assert r2_score(t, t) == 1.0
    assert r2_score(np.full(4, t.mean()), t) == 0.0
    with pytest.raises(ValueError):
        r2_score(t[:3], t)
    with pytest.raises(NumericalError):
        r2_score(t, np.full(4, 1.0))


def test_save_load_round_trip(tmp_path):
    X, y = make_regression(200, 3, seed=5)
    ens, _ = fit_ensemble(X, y, n_trees=25, max_depth=4, shrinkage=0.2)
    path = tmp_path / "model.rddt"
    save_ensemble(path, ens)
    back = load_ensemble(path)
    assert back.d == ens.d
    assert back.shrinkage == ens.shrinkage
    assert back.base_prediction == ens.base_prediction
    assert back.max_depth == ens.max_depth
    assert len(back.trees) == len(ens.trees)
    assert np.array_equal(predict_ensemble(back, X), predict_ensemble(ens, X))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.rddt"
    path.write_bytes(b"not a model at all")
    with pytest.raises(DataError):
        load_ensemble(path)
    good = tmp_path / "good.rddt"
    X, y = make_regression(50, 3, seed=6)
    ens, _ = fit_ensemble(X, y, n_trees=2, max_depth=2)
    save_ensemble(good, ens)
    raw = bytearray(good.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    bad = tmp_path / "bad_version.rddt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_ensemble(bad)
    # an intact version-2 file, child arrays and all, has no second reader
    v2 = tmp_path / "v2.rddt"
    v2.write_bytes(with_children(good.read_bytes(), 2))
    with pytest.raises(DataError, match="unsupported surrogate format version 2"):
        load_ensemble(v2)


def test_load_rejects_malformed_trees(tmp_path):
    X, y = make_regression(50, 3, seed=6)
    ens, _ = fit_ensemble(X, y, n_trees=2, max_depth=2)
    good = tmp_path / "good.rddt"
    save_ensemble(good, ens)
    raw = good.read_bytes()
    n = ens.trees[0].feature.shape[0]
    first = 36 + 4                          # header, then tree 0's node count
    first_leaf = int(np.flatnonzero(ens.trees[0].feature < 0)[0])
    leaf = first + 12 * n + 8 * first_leaf
    assert ens.trees[0].feature[0] >= 0     # the root is a split
    inf = np.float64(np.inf).tobytes()
    for name, offset, value in (("root_leaf", first, (-1).to_bytes(4, "little", signed=True)),
                                ("leaf_split", first + 4 * first_leaf, (0).to_bytes(4, "little")),
                                ("feature", first, (3).to_bytes(4, "little")),
                                ("threshold", first + 4 * n, np.float64(np.nan).tobytes()),
                                ("leaf", leaf, inf),
                                ("shrinkage", 20, inf),
                                ("base", 28, np.float64(np.nan).tobytes())):
        bad = bytearray(raw)
        bad[offset:offset + len(value)] = value
        # re-sealed, as a faulty writer would, so the load reaches the tree checks
        bad[-4:] = zlib.crc32(bad[:-4]).to_bytes(4, "little")
        path = tmp_path / f"{name}.rddt"
        path.write_bytes(bytes(bad))
        # the message, not only the file name, names the fault
        expected = {"root_leaf": "tree 0: nodes are not one binary tree",
                    "leaf_split": "tree 0: nodes are not one binary tree",
                    "feature": "feature index",
                    "threshold": "NaN threshold", "leaf": "tree 0: non-finite leaf value",
                    "shrinkage": "non-finite shrinkage inf",
                    "base": "base prediction nan"}[name]
        with pytest.raises(DataError, match=expected):
            load_ensemble(path)


def threshold_rows(ens, X):
    """Rows of X with one coordinate set to a split threshold, or to the
    next float on either side of it, for every split of every tree."""
    rows = []
    for tree in ens.trees:
        for f, thr in zip(tree.feature, tree.threshold):
            if f >= 0:
                for v in (np.nextafter(thr, -np.inf), thr, np.nextafter(thr, np.inf)):
                    row = X[len(rows) % X.shape[0]].copy()
                    row[f] = v
                    rows.append(row)
    return np.array(rows)


def test_prediction_matches_oracle_past_64_leaves():
    # trees with more leaves than one 64-bit word holds
    rng = np.random.default_rng(21)
    X = rng.uniform(-1, 1, size=(600, 3))
    y = np.sin(6 * X[:, 0]) * np.cos(4 * X[:, 1]) + X[:, 2] + 0.3 * rng.standard_normal(600)
    ens, _ = fit_ensemble(X, y, n_trees=4, max_depth=8, shrinkage=0.5)
    assert max(int(np.sum(t.feature < 0)) for t in ens.trees) > 64
    Xt = np.vstack([X, rng.uniform(-1.2, 1.2, size=(400, 3)), threshold_rows(ens, X)])
    assert np.array_equal(predict_ensemble(ens, Xt), manual_predict(ens, Xt))


def test_prediction_matches_oracle_with_an_unsplit_feature():
    rng = np.random.default_rng(22)
    X = rng.uniform(-1, 1, size=(200, 4))
    X[:, 1] = 0.5                          # constant: no split can use it
    y = np.sin(3 * X[:, 0]) + X[:, 2] * X[:, 3] + 0.05 * rng.standard_normal(200)
    ens, _ = fit_ensemble(X, y, n_trees=12, max_depth=4, shrinkage=0.3)
    used = set(np.concatenate([t.feature[t.feature >= 0] for t in ens.trees]).tolist())
    assert used == {0, 2, 3}
    Xt = rng.uniform(-1.2, 1.2, size=(300, 4))
    Xt[:100, 1] = rng.uniform(-1e3, 1e3, size=100)
    Xt[100:110, 1] = np.nan
    assert np.array_equal(predict_ensemble(ens, Xt), manual_predict(ens, Xt))


def test_prediction_matches_oracle_on_thresholds_shared_by_trees():
    X, y = make_regression(300, 3, seed=23)
    ens, _ = fit_ensemble(X, y, n_trees=30, max_depth=4, shrinkage=0.3)
    # how many trees split on each (feature, threshold) pair
    pairs = {}
    for k, tree in enumerate(ens.trees):
        for f, thr in zip(tree.feature, tree.threshold):
            if f >= 0:
                pairs.setdefault((int(f), float(thr)), set()).add(k)
    assert max(len(trees_) for trees_ in pairs.values()) >= 5
    Xt = threshold_rows(ens, X)
    assert np.array_equal(predict_ensemble(ens, Xt), manual_predict(ens, Xt))


def test_every_small_node_list_is_accepted_exactly_when_it_is_one_tree():
    # every split/leaf pattern of 1 to 11 nodes; the accepted ones must
    # predict like the walk, on random rows and on every threshold
    rng = np.random.default_rng(24)
    X = rng.uniform(-1, 1, size=(40, 2))
    accepted = 0
    for n in range(1, 12):
        for splits in itertools.product((False, True), repeat=n):
            feature = np.where(splits, np.arange(n) % 2, -1).astype(np.int32)
            tree = trees.Tree(feature=feature, threshold=rng.uniform(-0.8, 0.8, size=n),
                              value=np.where(splits, 0.0, np.arange(1.0, n + 1)))
            if preorder_children(feature) is None:
                with pytest.raises(DataError, match="tree 0: nodes are not one binary tree"):
                    trees.TreeEnsemble(0.25, [tree], 1.0, n, 2)
                continue
            ens = trees.TreeEnsemble(0.25, [tree], 1.0, n, 2)
            assert ens.n_trees == 1
            Xt = np.vstack([X, threshold_rows(ens, X).reshape(-1, 2)])
            assert np.array_equal(predict_ensemble(ens, Xt), manual_predict(ens, Xt))
            accepted += 1
    # one tree of each odd size 2k + 1 per shape: Catalan numbers 1, 1, 2, 5, 14, 42
    assert accepted == 65
