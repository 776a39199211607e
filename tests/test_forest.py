import numpy as np
import pytest

from reach_al.forest import TrainConfig, fit_arrays, predict_proba_matrix
from reach_al.metrics import confusion_and_rates, evaluate


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
