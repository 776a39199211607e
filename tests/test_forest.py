import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reach_al import forest
from reach_al.forest import TrainConfig, fit_arrays, predict_proba_matrix
from reach_al.metrics import confusion_and_rates, evaluate

TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")


# Textbook depth-first CART, one tree after another, written out as the
# reference that the lockstep grower must reproduce bit for bit.
def reference_best_split(X, y, idx, feats, min_leaf):
    n = len(idx)
    counts = np.bincount(y[idx], minlength=2)
    p = counts / n
    parent_gini = 1.0 - p[0] * p[0] - p[1] * p[1]

    best = None  # (weighted_gini, feature, threshold)
    for f in sorted(feats):
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y[idx][order]
        distinct = vs[:-1] < vs[1:]
        if min_leaf > 1:
            k = np.arange(1, n)
            distinct = distinct & (k >= min_leaf) & (n - k >= min_leaf)
        if not distinct.any():
            continue
        pos = np.cumsum(ys)[:-1]
        n_left = np.arange(1, n, dtype=float)
        n_right = n - n_left
        p1l = pos / n_left
        p1r = (counts[1] - pos) / n_right
        gini_l = 1.0 - p1l * p1l - (1.0 - p1l) ** 2
        gini_r = 1.0 - p1r * p1r - (1.0 - p1r) ** 2
        weighted = (n_left * gini_l + n_right * gini_r) / n

        cand = np.nonzero(distinct)[0]
        w = weighted[cand]
        thr = 0.5 * (vs[cand] + vs[cand + 1])
        j = np.lexsort((thr, w))[0]
        if w[j] < parent_gini - 1e-12 and (best is None or w[j] < best[0]):
            best = (w[j], f, thr[j])
    return best


def reference_grow_tree(X, y, rng, cfg):
    n = len(y)
    if cfg.bootstrap:
        sample_idx = rng.integers(0, n, size=n)
    else:
        sample_idx = np.arange(n)

    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append((0, 0))
        return len(feature) - 1

    stack = [(new_node(), sample_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        c = np.bincount(y[idx], minlength=2)
        counts[node] = (int(c[0]), int(c[1]))
        if (
            c[0] == 0
            or c[1] == 0
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or len(idx) < 2 * cfg.min_samples_leaf
        ):
            continue
        feats = rng.choice(9, size=cfg.features_per_split, replace=False)
        split = reference_best_split(X, y, idx, feats, cfg.min_samples_leaf)
        if split is None:
            continue
        _, f, thr = split
        mask = X[idx, f] <= thr
        feature[node] = int(f)
        threshold[node] = float(thr)
        node_l = new_node()
        node_r = new_node()
        left[node] = node_l
        right[node] = node_r
        stack.append((node_r, idx[~mask], depth + 1))
        stack.append((node_l, idx[mask], depth + 1))

    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=float),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "counts": np.array(counts, dtype=np.int64),
    }


def reference_fit(X, y, cfg):
    order = np.lexsort((y,) + tuple(X[:, f] for f in range(8, -1, -1)))
    X, y = X[order], y[order]
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    return [reference_grow_tree(X, y, np.random.default_rng(s), cfg) for s in streams]


def reference_proba(trees, X):
    acc = np.zeros((len(X), 2), dtype=float)
    for t in trees:
        idx = np.zeros(len(X), dtype=np.int64)
        while True:
            internal = t["feature"][idx] >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            node = idx[rows]
            go_left = X[rows, t["feature"][node]] <= t["threshold"][node]
            idx[rows] = np.where(go_left, t["left"][node], t["right"][node])
        c = t["counts"][idx].astype(float)
        acc += c / c.sum(axis=1, keepdims=True)
    return acc / len(trees)


@st.composite
def forest_problems(draw):
    """Feature matrices with repeated values, duplicate rows and some NaN or
    -inf cells, plus a forest config.

    Values are never adjacent floats nor +inf, whose midpoint the reference
    rounds onto the upper value; see test_thresholds_separate_the_counted_rows.
    """
    n = draw(st.integers(1, 200), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    levels = draw(st.integers(1, 20), label="distinct values per column")
    X = rng.integers(0, levels, size=(n, 9)) * 0.3 - 1.0
    continuous = rng.random(9) < draw(st.floats(0.0, 1.0), label="continuous share")
    X[:, continuous] = rng.normal(size=(n, int(continuous.sum())))
    if draw(st.booleans(), label="missing cells"):
        cells = rng.integers(0, n * 9, size=max(1, n // 10))
        X.flat[cells] = rng.choice([np.nan, -np.inf], size=len(cells))
    n_dup = draw(st.integers(0, n // 2), label="duplicate rows")
    X[rng.integers(0, n, size=n_dup)] = X[rng.integers(0, n, size=n_dup)]
    noise = draw(st.floats(0.0, 1.0), label="label noise")
    y = ((X[:, 0] + X[:, 3] > X[:, 6]) ^ (rng.random(n) < noise)).astype(np.int64)
    cfg = TrainConfig(
        n_trees=draw(st.integers(1, 8), label="n_trees"),
        features_per_split=draw(st.integers(1, 9), label="features_per_split"),
        min_samples_leaf=draw(st.integers(1, 4), label="min_samples_leaf"),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6)), label="max_depth"),
        bootstrap=draw(st.booleans(), label="bootstrap"),
        seed=draw(st.integers(0, 2**32 - 1), label="forest seed"),
    )
    return X, y, cfg


def range_labeled_data(n, rng, threshold=1.0):
    """Constant features except range; label = 1 iff range < threshold."""
    X = np.zeros((n, 9))
    X[:, 3] = rng.uniform(0.2, 2.0, size=n)
    y = (X[:, 3] < threshold).astype(np.int64)
    return X, y


def random_data(n, rng):
    X = rng.normal(size=(n, 9))
    y = (X[:, 0] + 0.5 * X[:, 3] - 0.2 * X[:, 6] > 0).astype(np.int64)
    return X, y


class TestFit:
    def test_axis_aligned_separable(self):
        rng = np.random.default_rng(30)
        X, y = range_labeled_data(20, rng)
        model = fit_arrays(X, y, TrainConfig(seed=1))
        assert evaluate(predict_proba_matrix(model, X)[:, 1], y).accuracy == 1.0

    def test_single_class_input(self):
        X = np.random.default_rng(31).normal(size=(15, 9))
        model = fit_arrays(X, np.ones(15, dtype=int), TrainConfig(seed=2))
        probs = predict_proba_matrix(model, X)
        np.testing.assert_allclose(probs[:, 1], 1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_arrays(np.zeros((0, 9)), np.zeros(0, dtype=int), TrainConfig())

    def test_deterministic_serialization(self):
        rng = np.random.default_rng(33)
        X, y = random_data(60, rng)
        a = fit_arrays(X, y, TrainConfig(seed=4))
        b = fit_arrays(X, y, TrainConfig(seed=4))
        assert len(a.trees) == len(b.trees)
        for ta, tb in zip(a.trees, b.trees):
            for name in ("feature", "threshold", "left", "right", "counts"):
                np.testing.assert_array_equal(getattr(ta, name), getattr(tb, name))

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(34)
        X, y = random_data(50, rng)
        perm = rng.permutation(50)
        m1 = fit_arrays(X, y, TrainConfig(seed=5))
        m2 = fit_arrays(X[perm], y[perm], TrainConfig(seed=5))
        Xq = rng.normal(size=(200, 9))
        np.testing.assert_array_equal(
            predict_proba_matrix(m1, Xq), predict_proba_matrix(m2, Xq)
        )

    def test_full_training_accuracy_on_distinct_rows(self):
        rng = np.random.default_rng(35)
        for seed in range(5):
            X = rng.normal(size=(40, 9))
            y = rng.integers(0, 2, size=40)
            if len(set(y)) < 2:
                continue
            model = fit_arrays(X, y, TrainConfig(seed=seed, bootstrap=False))
            assert evaluate(predict_proba_matrix(model, X)[:, 1], y).accuracy == 1.0

    def test_monotone_feature_transform_keeps_tree_structure(self):
        # Split selection depends only on value order, so any strictly
        # increasing map of a column reproduces every tree shape and leaf.
        # Midpoint thresholds move nonlinearly, so only structure is exact.
        rng = np.random.default_rng(36)
        X, y = random_data(50, rng)
        m1 = fit_arrays(X, y, TrainConfig(seed=6))
        X2 = X.copy()
        X2[:, 4] = np.exp(X2[:, 4])
        m2 = fit_arrays(X2, y, TrainConfig(seed=6))
        for t1, t2 in zip(m1.trees, m2.trees):
            np.testing.assert_array_equal(t1.feature, t2.feature)
            np.testing.assert_array_equal(t1.left, t2.left)
            np.testing.assert_array_equal(t1.counts, t2.counts)

    def test_affine_feature_transform_invariance(self):
        # Affine increasing maps commute with midpoints, so predictions
        # match everywhere, not just structurally.
        rng = np.random.default_rng(42)
        X, y = random_data(50, rng)
        Xq = rng.normal(size=(300, 9))
        m1 = fit_arrays(X, y, TrainConfig(seed=6))
        p1 = predict_proba_matrix(m1, Xq)
        X2, Xq2 = X.copy(), Xq.copy()
        X2[:, 4] = 3.0 * X2[:, 4] + 1.0
        Xq2[:, 4] = 3.0 * Xq2[:, 4] + 1.0
        m2 = fit_arrays(X2, y, TrainConfig(seed=6))
        p2 = predict_proba_matrix(m2, Xq2)
        np.testing.assert_allclose(p1, p2, atol=1e-12)


class TestLockstepEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(forest_problems())
    def test_trees_match_reference_bit_for_bit(self, problem):
        X, y, cfg = problem
        model = fit_arrays(X, y, cfg)
        expected = reference_fit(X, y, cfg)
        assert len(model.trees) == len(expected)
        for tree, ref in zip(model.trees, expected):
            for name in TREE_ARRAYS:
                assert np.array_equal(getattr(tree, name), ref[name]), name
        Xq = np.concatenate([X, X + 0.15])
        assert np.array_equal(predict_proba_matrix(model, Xq), reference_proba(expected, Xq))

    def test_default_forest_matches_reference(self):
        rng = np.random.default_rng(43)
        X, y = random_data(130, rng)
        model = fit_arrays(X, y, TrainConfig(seed=12))
        for tree, ref in zip(model.trees, reference_fit(X, y, TrainConfig(seed=12))):
            for name in TREE_ARRAYS:
                assert np.array_equal(getattr(tree, name), ref[name]), name


def leaf_of(tree, x):
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return node


class TestThresholds:
    def test_thresholds_separate_the_counted_rows(self):
        # 0.3 and the next float have a midpoint that rounds onto the upper
        # value, and a midpoint with +inf overflows.  Either threshold would
        # send rows to the other side than the Gini counts assumed.
        a = 0.3
        b = np.nextafter(a, 1.0)
        assert 0.5 * (a + b) == b
        X = np.zeros((6, 9))
        X[:, 2] = [a, b, b, 1.0, np.inf, np.inf]
        y = np.array([0, 1, 1, 0, 1, 1])
        model = fit_arrays(X, y, TrainConfig(n_trees=4, bootstrap=False, features_per_split=9))
        for tree in model.trees:
            leaves = np.array([leaf_of(tree, x) for x in X])
            assert sorted(set(leaves)) == sorted(np.flatnonzero(tree.feature < 0))
            for leaf in set(leaves):
                assert np.bincount(y[leaves == leaf], minlength=2).tolist() == tree.counts[leaf].tolist()


class TestPredictProba:
    def test_probability_simplex(self):
        rng = np.random.default_rng(37)
        X, y = random_data(80, rng)
        model = fit_arrays(X, y, TrainConfig(seed=7))
        probs = predict_proba_matrix(model, rng.normal(size=(500, 9)))
        assert (probs >= 0).all() and (probs <= 1).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_training_points_get_majority_probability(self):
        rng = np.random.default_rng(38)
        for seed in range(4):
            X, y = range_labeled_data(40, rng)
            model = fit_arrays(X, y, TrainConfig(seed=seed))
            probs = predict_proba_matrix(model, X)
            true_p = probs[np.arange(len(y)), y]
            assert (true_p >= 0.5).all()

    def test_unanimous_vote(self):
        X = np.zeros((10, 9))
        X[:5, 0] = 1.0
        y = np.array([1] * 5 + [0] * 5)
        model = fit_arrays(
            X, y, TrainConfig(seed=8, bootstrap=False, features_per_split=9)
        )
        q = np.zeros((1, 9))
        q[0, 0] = 1.0
        np.testing.assert_allclose(predict_proba_matrix(model, q)[0], [0.0, 1.0])


def tree_dicts(model):
    return [{name: getattr(t, name) for name in TREE_ARRAYS} for t in model.trees]


def with_missing_cells(X, rng, share=0.1):
    X = X.copy()
    cells = rng.random(X.shape) < share
    X[cells] = rng.choice([np.nan, -np.inf], size=int(cells.sum()))
    return X


class TestCompiledPredict:
    """The path-matrix predict against the node-by-node ``reference_proba``."""

    def test_many_chunks_with_a_ragged_last_one(self, monkeypatch):
        rng = np.random.default_rng(44)
        X, y = random_data(130, rng)
        model = fit_arrays(X, y, TrainConfig(seed=13))
        Xq = with_missing_cells(rng.normal(size=(2_500, 9)), rng)
        T, mmax, kmax = model._paths[2].shape
        assert len(Xq) % (forest._CHUNK_ELEMENTS // (T * max(kmax, mmax))) != 0
        assert np.array_equal(predict_proba_matrix(model, Xq), reference_proba(tree_dicts(model), Xq))
        monkeypatch.setattr(forest, "_CHUNK_ELEMENTS", 7 * T * max(kmax, mmax))
        for n in (6, 7, 8, 25):
            assert np.array_equal(
                predict_proba_matrix(model, Xq[:n]), reference_proba(tree_dicts(model), Xq[:n])
            )

    def test_zero_and_one_row_queries(self):
        rng = np.random.default_rng(45)
        X, y = random_data(60, rng)
        model = fit_arrays(X, y, TrainConfig(seed=14))
        assert predict_proba_matrix(model, np.zeros((0, 9))).shape == (0, 2)
        one = predict_proba_matrix(model, X[:1])
        assert one.shape == (1, 2)
        assert np.array_equal(one, reference_proba(tree_dicts(model), X[:1]))

    def test_single_leaf_trees_padded_next_to_deep_ones(self):
        # One positive in 40 rows: a bootstrap that misses it grows a
        # single leaf, one that draws it grows a path to it.
        rng = np.random.default_rng(46)
        X = rng.normal(size=(40, 9))
        y = np.zeros(40, dtype=np.int64)
        y[:3] = 1
        model = fit_arrays(X, y, TrainConfig(n_trees=30, seed=15))
        internal = [int((t.feature >= 0).sum()) for t in model.trees]
        assert min(internal) == 0 and max(internal) >= 3
        Xq = with_missing_cells(np.concatenate([X, rng.normal(size=(200, 9))]), rng)
        assert np.array_equal(predict_proba_matrix(model, Xq), reference_proba(tree_dicts(model), Xq))
        # Every tree a single leaf: the path matrices have no columns.
        leaves_only = fit_arrays(X, np.ones(40, dtype=np.int64), TrainConfig(n_trees=5, seed=16))
        assert leaves_only._paths[2].shape[2] == 0
        assert np.array_equal(predict_proba_matrix(leaves_only, Xq), np.tile([0.0, 1.0], (len(Xq), 1)))

    def test_impure_leaves_sum_in_tree_order(self):
        rng = np.random.default_rng(47)
        X, y = random_data(150, rng)
        y ^= rng.random(150) < 0.2
        model = fit_arrays(X, y, TrainConfig(max_depth=2, seed=17))
        Xq = with_missing_cells(rng.normal(size=(600, 9)), rng, share=0.3)
        trees = tree_dicts(model)
        expected = reference_proba(trees, Xq)
        assert np.array_equal(predict_proba_matrix(model, Xq), expected)
        # The query set is one on which another summation order shows.
        assert not np.array_equal(reference_proba(trees[::-1], Xq), expected)

    def test_chunks_bound_the_memory_of_a_large_query(self):
        rng = np.random.default_rng(48)
        X, y = random_data(130, rng)
        model = fit_arrays(X, y, TrainConfig(seed=18))
        Xq = rng.normal(size=(20_000, 9))
        tracemalloc.start()
        try:
            out = predict_proba_matrix(model, Xq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 4_000_000


class TestPredict:
    """The hard decision is made in ``metrics.evaluate``: reachable iff p1 > 0.5."""

    def test_threshold_and_tie_rule(self):
        rng = np.random.default_rng(40)
        X, y = random_data(60, rng)
        model = fit_arrays(X, y, TrainConfig(seed=10))
        Xq = rng.normal(size=(400, 9))
        p1 = predict_proba_matrix(model, Xq)[:, 1]
        truths = rng.integers(0, 2, size=len(Xq))
        m = evaluate(p1, truths)
        expected = confusion_and_rates((p1 > 0.5).astype(int), truths)
        assert (m.tp, m.fp, m.tn, m.fn) == (expected.tp, expected.fp, expected.tn, expected.fn)

    def test_exact_tie_is_unreachable(self):
        # Two identical feature rows with opposite labels force 50/50 leaves.
        X = np.zeros((2, 9))
        y = np.array([0, 1])
        model = fit_arrays(X, y, TrainConfig(seed=11, bootstrap=False))
        p = predict_proba_matrix(model, X[:1])[0]
        np.testing.assert_allclose(p, [0.5, 0.5])
        m = evaluate([p[1]], [1])
        assert (m.tp, m.fn) == (0, 1)


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(ValueError):
            TrainConfig(n_trees=0)
        with pytest.raises(ValueError):
            TrainConfig(features_per_split=10)
        with pytest.raises(ValueError):
            TrainConfig(max_depth=0)

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            fit_arrays(np.zeros((3, 9)), np.array([0, 1, 2]), TrainConfig())

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            fit_arrays(np.zeros((3, 5)), np.array([0, 1, 0]), TrainConfig())
