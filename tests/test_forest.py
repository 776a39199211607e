import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reach_al import forest
from reach_al.forest import TrainConfig, fit_arrays, predict_proba_matrix
from reach_al.metrics import evaluate

TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")


# Textbook CART, one node at a time, written out as the reference that the
# batched level-wise grower must reproduce bit for bit.
def reference_best_split(X, y, idx, feats):
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


def canonical(X, y):
    order = np.lexsort((y,) + tuple(X[:, f] for f in range(8, -1, -1)))
    return X[order], y[order]


def bootstraps(n, cfg):
    """The bootstrap rows of every tree, one tree per row: the forest's first draw."""
    return np.random.default_rng(cfg.seed).integers(0, n, size=(cfg.n_trees, n))


def reference_fit(X, y, cfg):
    """Grow the trees level by level with the forest's draws: one generator
    seeded with ``cfg.seed`` draws every bootstrap, then at each level one
    row of 9 uniforms per impure node, in (tree, node) order, whose argsort's
    first 3 entries are the node's features.  Nodes are numbered within
    their tree in level order."""
    X, y = canonical(X, y)
    rng = np.random.default_rng(cfg.seed)
    boots = rng.integers(0, len(y), size=(cfg.n_trees, len(y)))
    trees = [{name: [] for name in TREE_ARRAYS} for _ in boots]

    def new_node(t, idx):
        tree = trees[t]
        for name, value in zip(TREE_ARRAYS, (-1, 0.0, -1, -1, np.bincount(y[idx], minlength=2))):
            tree[name].append(value)
        return t, len(tree["feature"]) - 1, idx

    level = [new_node(t, idx) for t, idx in enumerate(boots)]
    while level:
        impure = [(t, node, idx) for t, node, idx in level if trees[t]["counts"][node].min() > 0]
        draws = rng.random((len(impure), 9))
        level = []
        for (t, node, idx), u in zip(impure, draws):
            split = reference_best_split(X, y, idx, np.argsort(u)[:3])
            if split is None:
                continue
            _, f, thr = split
            mask = X[idx, f] <= thr
            children = [new_node(t, idx[mask]), new_node(t, idx[~mask])]
            tree = trees[t]
            tree["feature"][node], tree["threshold"][node] = int(f), float(thr)
            tree["left"][node], tree["right"][node] = children[0][1], children[1][1]
            level += children

    dtypes = (np.int64, float, np.int64, np.int64, np.int64)
    return [{name: np.array(t[name], dtype=d) for name, d in zip(TREE_ARRAYS, dtypes)} for t in trees]


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
    -inf cells, plus a forest size and seed.

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
        # On distinct rows every leaf is pure, so each tree fits its own
        # bootstrap exactly, and each row is in most trees' bootstraps.
        rng = np.random.default_rng(35)
        for seed in range(5):
            X = rng.normal(size=(40, 9))
            y = rng.integers(0, 2, size=40)
            if len(set(y)) < 2:
                continue
            cfg = TrainConfig(seed=seed)
            model = fit_arrays(X, y, cfg)
            Xc, yc = canonical(X, y)
            for tree, idx in zip(model.trees, bootstraps(len(y), cfg)):
                for i in idx:
                    assert tree.counts[leaf_of(tree, Xc[i]), 1 - yc[i]] == 0
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

    @pytest.mark.parametrize(
        "n, bound", [(150, 6_575_659), (4_000, 171_954_108)], ids=["150-rows", "4000-rows"]
    )
    def test_memory_of_a_fit_is_bounded(self, n, bound):
        # 150 rows is the largest fit of a default sweep; 4,000 stands for
        # ``run --data`` with a large ``--init-size``.  Each bound is the
        # traced peak, in bytes, of the depth-first lockstep grower that
        # level-wise growth replaced, on this data and seed.
        X, y = random_data(n, np.random.default_rng(49))
        tracemalloc.start()
        try:
            fit_arrays(X, y, TrainConfig(seed=19))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestLevelwiseEquivalence:
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
        # Every column holds the values, so every drawn feature can split.
        a = 0.3
        b = np.nextafter(a, 1.0)
        assert 0.5 * (a + b) == b
        X = np.tile([[a], [b], [b], [1.0], [np.inf], [np.inf]], (1, 9))
        y = np.array([0, 1, 1, 0, 1, 1])
        cfg = TrainConfig(n_trees=30)
        model = fit_arrays(X, y, cfg)
        thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in model.trees])
        assert {a, 1.0} <= set(thresholds.tolist())
        Xc, yc = canonical(X, y)
        for tree, idx in zip(model.trees, bootstraps(len(y), cfg)):
            leaves = np.array([leaf_of(tree, Xc[i]) for i in idx])
            assert sorted(set(leaves)) == sorted(np.flatnonzero(tree.feature < 0))
            for leaf in set(leaves):
                counted = np.bincount(yc[idx][leaves == leaf], minlength=2)
                assert counted.tolist() == tree.counts[leaf].tolist()


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
        # Every column separates the classes, and with 20 rows of each no
        # bootstrap misses a class, so every tree votes the query reachable.
        X = np.zeros((40, 9))
        X[:20] = 1.0
        y = np.array([1] * 20 + [0] * 20)
        model = fit_arrays(X, y, TrainConfig(seed=8))
        np.testing.assert_allclose(predict_proba_matrix(model, np.ones((1, 9)))[0], [0.0, 1.0])


def tree_dicts(model):
    return [{name: getattr(t, name) for name in TREE_ARRAYS} for t in model.trees]


def with_missing_cells(X, rng, share=0.1):
    X = X.copy()
    cells = rng.random(X.shape) < share
    X[cells] = rng.choice([np.nan, -np.inf], size=int(cells.sum()))
    return X


def mask_words(model):
    """Words per tree in the compiled leaf masks."""
    return model._bins[2].shape[2]


def rows_per_chunk(model):
    return max(1, forest._CHUNK_ELEMENTS // (len(model.trees) * mask_words(model)))


def matches_reference(model, Xq):
    return np.array_equal(predict_proba_matrix(model, Xq), reference_proba(tree_dicts(model), Xq))


@st.composite
def mixed_forests(draw):
    """A few positives among many rows: a bootstrap that misses them grows
    a single leaf, one that draws them a deep tree.  The queries include
    all-NaN rows, and the chunk size leaves a ragged last chunk."""
    n = draw(st.integers(20, 120), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    X = with_missing_cells(rng.normal(size=(n, 9)), rng, share=draw(st.floats(0.0, 0.2)))
    y = np.zeros(n, dtype=np.int64)
    y[rng.choice(n, size=draw(st.integers(1, 4), label="positives"), replace=False)] = 1
    cfg = TrainConfig(n_trees=draw(st.integers(8, 60), label="n_trees"), seed=draw(st.integers(0, 2**32 - 1)))
    Xq = with_missing_cells(np.concatenate([X, rng.normal(size=(draw(st.integers(0, 300)), 9))]), rng)
    Xq[rng.random(len(Xq)) < 0.1] = np.nan
    chunk = draw(st.integers(2, 50), label="rows per chunk")
    return X, y, cfg, Xq, chunk


@st.composite
def wide_forests(draw):
    """Noisy labels on a few hundred rows: trees of more than 64 leaves,
    whose masks take two words or more."""
    n = draw(st.integers(250, 500), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    X = with_missing_cells(rng.normal(size=(n, 9)), rng, share=draw(st.floats(0.0, 0.1)))
    noise = draw(st.floats(0.2, 0.5), label="label noise")
    y = ((X[:, 0] > 0) ^ (rng.random(n) < noise)).astype(np.int64)
    cfg = TrainConfig(n_trees=draw(st.integers(1, 6), label="n_trees"), seed=draw(st.integers(0, 2**32 - 1)))
    Xq = with_missing_cells(np.concatenate([X, rng.normal(size=(draw(st.integers(0, 200)), 9))]), rng)
    return X, y, cfg, Xq, draw(st.integers(1, 40), label="rows per chunk")


# A node whose rows hold -1e-323 and 5e-324 gets the threshold -0.0 (their
# midpoint rounds to it), and one whose rows hold -1 and 1 gets 0.0.
SIGNED_ZEROS = np.array([-1e-323, -5e-324, -0.0, 0.0, 5e-324, -1.0, 1.0])


@st.composite
def signed_zero_forests(draw):
    """Values around both zeros; the queries add NaN and -inf cells."""
    n = draw(st.integers(10, 80), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    X = rng.choice(SIGNED_ZEROS, size=(n, 9))
    y = rng.integers(0, 2, size=n)
    cfg = TrainConfig(n_trees=draw(st.integers(1, 30), label="n_trees"), seed=draw(st.integers(0, 2**32 - 1)))
    Xq = rng.choice(np.append(SIGNED_ZEROS, [np.nan, -np.inf]), size=(draw(st.integers(0, 300)), 9))
    return X, y, cfg, Xq


def leaf_runs(k, repeats=20):
    """k distinct rows with alternating labels, each repeated so that no
    bootstrap misses one (odds about e**-20), and one value in every column:
    every tree splits them into k leaves."""
    X = np.repeat(np.arange(k, dtype=float), repeats)[:, None] * np.ones(9)
    return X, np.repeat(np.arange(k) % 2, repeats)


class TestCompiledPredict:
    """The bin-table predict against the node-by-node ``reference_proba``."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_forests())
    def test_mixed_forests_match_reference_bit_for_bit(self, problem):
        X, y, cfg, Xq, chunk = problem
        model = fit_arrays(X, y, cfg)
        internal = [int((t.feature >= 0).sum()) for t in model.trees]
        assume(min(internal) == 0 and max(internal) >= 2)
        assume(len(Xq) % chunk != 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_CHUNK_ELEMENTS", chunk * len(model.trees) * mask_words(model))
            assert rows_per_chunk(model) == chunk
            assert matches_reference(model, Xq)

    @settings(max_examples=25, deadline=None)
    @given(wide_forests())
    def test_masks_of_several_words_match_reference(self, problem):
        X, y, cfg, Xq, chunk = problem
        model = fit_arrays(X, y, cfg)
        leaves = max(int((t.feature < 0).sum()) for t in model.trees)
        assume(leaves > 64)
        assert model._bins[2].dtype == np.uint64
        assert mask_words(model) == -(-leaves // 64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_CHUNK_ELEMENTS", chunk * len(model.trees) * mask_words(model))
            assert matches_reference(model, Xq)

    @pytest.mark.parametrize("k, words", [(64, 1), (65, 2)])
    def test_trees_of_64_and_65_leaves(self, k, words):
        X, y = leaf_runs(k)
        model = fit_arrays(X, y, TrainConfig(n_trees=3, seed=20))
        assert all(int((t.feature < 0).sum()) == k for t in model.trees)
        assert model._bins[2].dtype == np.uint64 and mask_words(model) == words
        # Every value, every midpoint, past both ends, and NaN.
        values = np.concatenate([np.arange(-1.0, k + 0.5, 0.5), [np.nan, -np.inf, np.inf]])
        Xq = np.repeat(values[:, None], 9, axis=1)
        assert matches_reference(model, Xq)
        assert predict_proba_matrix(model, Xq)[2 : 2 * k + 2 : 2, 1].tolist() == (np.arange(k) % 2).tolist()

    @settings(max_examples=60, deadline=None)
    @given(signed_zero_forests())
    def test_signed_zeros_and_infinities_match_reference(self, problem):
        X, y, cfg, Xq = problem
        assert matches_reference(fit_arrays(X, y, cfg), Xq)

    def test_thresholds_of_both_signed_zeros_on_one_feature(self):
        rng = np.random.default_rng(0)
        X = rng.choice(SIGNED_ZEROS[[0, 4, 5, 6, 2, 3]], size=(60, 9))
        model = fit_arrays(X, rng.integers(0, 2, size=60), TrainConfig(n_trees=20, seed=0))
        thr = np.concatenate([t.threshold[t.feature == 2] for t in model.trees])
        assert (np.signbit(thr) & (thr == 0)).any() and (~np.signbit(thr) & (thr == 0)).any()
        Xq = rng.choice(SIGNED_ZEROS, size=(400, 9))
        Xq[::7, 2] = np.nan
        assert matches_reference(model, Xq)

    @settings(max_examples=30, deadline=None)
    @given(forest_problems(), st.integers(0, 300), st.integers(1, 20))
    def test_single_leaf_forests_have_no_cut(self, problem, n_query, chunk):
        X, y, cfg = problem
        model = fit_arrays(X, np.full(len(y), y[0]), cfg)
        assert model._bins[0].shape == (9, 0) and model._bins[2].shape[0] == 9
        rng = np.random.default_rng(n_query)
        Xq = with_missing_cells(rng.normal(size=(n_query, 9)), rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_CHUNK_ELEMENTS", chunk * len(model.trees))
            probs = predict_proba_matrix(model, Xq)
        assert np.array_equal(probs, np.tile([1.0 - y[0], float(y[0])], (n_query, 1)))
        assert matches_reference(model, Xq)

    @settings(max_examples=40, deadline=None)
    @given(forest_problems(), st.integers(1, 30), st.sampled_from([0, 1, "ragged"]))
    def test_empty_single_row_and_ragged_queries(self, problem, chunk, n_query):
        X, y, cfg = problem
        model = fit_arrays(X, y, cfg)
        if n_query == "ragged":
            n_query = 3 * chunk + 1 if chunk > 1 else 4
        rng = np.random.default_rng(chunk)
        Xq = with_missing_cells(rng.normal(size=(n_query, 9)), rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_CHUNK_ELEMENTS", chunk * len(model.trees) * mask_words(model))
            assert rows_per_chunk(model) == chunk
            probs = predict_proba_matrix(model, Xq)
        assert probs.shape == (n_query, 2)
        assert np.array_equal(probs, reference_proba(tree_dicts(model), Xq))

    def test_many_chunks_with_a_ragged_last_one(self, monkeypatch):
        rng = np.random.default_rng(44)
        X, y = random_data(130, rng)
        model = fit_arrays(X, y, TrainConfig(seed=13))
        Xq = with_missing_cells(rng.normal(size=(2_500, 9)), rng)
        assert len(Xq) // rows_per_chunk(model) > 1
        assert len(Xq) % rows_per_chunk(model) != 0
        assert matches_reference(model, Xq)
        monkeypatch.setattr(forest, "_CHUNK_ELEMENTS", 7 * len(model.trees) * mask_words(model))
        assert rows_per_chunk(model) == 7
        for n in (6, 7, 8, 25):
            assert matches_reference(model, Xq[:n])

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
        leaves = np.array([int((t.feature < 0).sum()) for t in model.trees])
        assert leaves.min() == 1 and leaves.max() >= 4
        # Every tree's mask is padded to the narrowest word that holds the
        # largest tree's leaves, and the cuts are each feature's distinct
        # thresholds, padded with +inf to a common width of 2**k - 1.
        cuts, shift, table, freq = model._bins
        assert table.dtype == np.uint8 and mask_words(model) == 1
        assert len(freq) == 30 * leaves.max()
        width = cuts.shape[1]
        distinct = [np.unique(np.concatenate([t.threshold[t.feature == f] for t in model.trees])) for f in range(9)]
        assert width & (width + 1) == 0 and width // 2 < max(map(len, distinct)) <= width
        for f in range(9):
            assert cuts[f, : len(distinct[f])].tolist() == distinct[f].tolist()
            assert np.isposinf(cuts[f, len(distinct[f]) :]).all()
        # Leaves are numbered left to right: past every cut, a row goes
        # right at every node and reaches each tree's last leaf.
        past_every_cut = [table[shift[f] + f * width + len(distinct[f])] for f in range(9)]
        reached = np.bitwise_and.reduce(past_every_cut)[:, 0]
        assert np.array_equal(reached & -reached, (1 << (leaves - 1)).astype(np.uint8))
        Xq = with_missing_cells(np.concatenate([X, rng.normal(size=(200, 9))]), rng)
        assert matches_reference(model, Xq)
        # Every tree a single leaf: no feature has a cut.
        leaves_only = fit_arrays(X, np.ones(40, dtype=np.int64), TrainConfig(n_trees=5, seed=16))
        assert leaves_only._bins[0].shape == (9, 0)
        assert np.array_equal(predict_proba_matrix(leaves_only, Xq), np.tile([0.0, 1.0], (len(Xq), 1)))

    def test_impure_leaves_sum_in_tree_order(self):
        rng = np.random.default_rng(47)
        # Duplicated feature rows with conflicting labels cannot be split,
        # so they end in impure leaves.
        X, y = random_data(150, rng)
        X = np.concatenate([X, X[:60]])
        y = np.concatenate([y, 1 - y[:60]])
        model = fit_arrays(X, y, TrainConfig(seed=17))
        assert any(((t.feature < 0) & (t.counts.min(axis=1) > 0)).any() for t in model.trees)
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

    def test_chunks_bound_the_memory_of_a_wide_forest_query(self):
        # Trees of 129 to 192 leaves: masks of three 64-bit words.
        rng = np.random.default_rng(48)
        X, y = random_data(1_500, rng)
        model = fit_arrays(X, y, TrainConfig(seed=18))
        assert mask_words(model) == 3
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
        reachable, decided = truths == 1, p1 > 0.5
        assert m.accuracy == np.mean(decided == reachable)
        assert m.precision == np.sum(decided & reachable) / np.sum(decided)
        assert m.recall == np.sum(decided & reachable) / np.sum(reachable)
        assert m.ik_reduction == np.mean(~decided)

    def test_exact_tie_is_unreachable(self):
        # Two identical feature rows with opposite labels, and a one-tree
        # forest whose bootstrap draws each once: a 50/50 leaf.
        X = np.zeros((2, 9))
        y = np.array([0, 1])
        model = fit_arrays(X, y, TrainConfig(n_trees=1, seed=1))
        assert model.trees[0].counts.tolist() == [[1, 1]]
        p = predict_proba_matrix(model, X[:1])[0]
        np.testing.assert_allclose(p, [0.5, 0.5])
        m = evaluate([p[1]], [1])
        assert (m.recall, m.ik_reduction) == (0.0, 1.0)


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(ValueError):
            TrainConfig(n_trees=0)
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            fit_arrays(np.zeros((3, 9)), np.array([0, 1, 2]), TrainConfig())

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            fit_arrays(np.zeros((3, 5)), np.array([0, 1, 0]), TrainConfig())
