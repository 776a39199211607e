import numpy as np
import pytest

from reach_al.metrics import (
    confusion_and_rates,
    evaluate,
    ik_call_reduction,
    roc_auc,
)


def roc_auc_pairwise(scores, truths):
    """Brute-force positive/negative pair count; the oracle for roc_auc."""
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths, dtype=np.int64)
    pos = scores[truths == 1]
    neg = scores[truths == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (float(wins) + 0.5 * float(ties)) / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect(self):
        m = confusion_and_rates([1, 1, 0, 0], [1, 1, 0, 0])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_predictions(self):
        m = confusion_and_rates([0, 0, 0, 0], [1, 1, 0, 0])
        assert m.accuracy == 0.5
        assert m.recall == 0.0
        assert m.precision is None
        assert m.f1 is None

    def test_hand_counted_table(self):
        m = confusion_and_rates([1, 0, 1, 1], [1, 0, 0, 1])
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 1, 1, 0)
        np.testing.assert_allclose(m.precision, 2 / 3)
        assert m.recall == 1.0
        np.testing.assert_allclose(m.f1, 0.8)

    def test_accuracy_is_one_minus_hamming(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            n = rng.integers(1, 50)
            preds = rng.integers(0, 2, size=n)
            truths = rng.integers(0, 2, size=n)
            m = confusion_and_rates(preds, truths)
            np.testing.assert_allclose(m.accuracy, 1.0 - np.mean(preds != truths))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_and_rates([1, 0], [1])


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_hand_counted_pairs(self):
        auc = roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        np.testing.assert_allclose(auc, 0.75)

    def test_single_class_undefined(self):
        assert roc_auc([0.1, 0.9], [1, 1]) is None
        assert roc_auc_pairwise([0.1, 0.9], [0, 0]) is None

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(51)
        for _ in range(400):
            n = int(rng.integers(2, 200))
            truths = rng.integers(0, 2, size=n)
            if truths.min() == truths.max():
                truths[0] = 1 - truths[0]
            scores = np.round(rng.random(n), int(rng.integers(1, 4)))
            fast = roc_auc(scores, truths)
            slow = roc_auc_pairwise(scores, truths)
            assert abs(fast - slow) <= 1e-12

    def test_complement_under_label_flip(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            n = int(rng.integers(4, 100))
            truths = rng.integers(0, 2, size=n)
            if truths.min() == truths.max():
                truths[0] = 1 - truths[0]
            scores = rng.random(n)  # ties almost surely absent
            a = roc_auc(scores, truths)
            b = roc_auc(scores, 1 - truths)
            np.testing.assert_allclose(a + b, 1.0, atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(4, 100))
            truths = rng.integers(0, 2, size=n)
            if truths.min() == truths.max():
                truths[0] = 1 - truths[0]
            scores = rng.random(n)
            a = roc_auc(scores, truths)
            b = roc_auc(np.exp(3.0 * scores), truths)
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestIkCallReduction:
    def test_fraction_filtered(self):
        assert ik_call_reduction([0, 0, 1, 1, 1]) == 0.4

    def test_no_savings(self):
        assert ik_call_reduction([1, 1, 1]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ik_call_reduction([])


class TestEvaluate:
    def test_combines_confusion_and_auc(self):
        scores = np.array([0.9, 0.8, 0.3, 0.1])
        truths = np.array([1, 0, 1, 0])
        m = evaluate(scores, truths)
        assert m.tp == 1 and m.fp == 1 and m.fn == 1 and m.tn == 1
        np.testing.assert_allclose(m.auc, 0.75)
