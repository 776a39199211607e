from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reach_al.metrics import MetricSet, evaluate, roc_auc
from reach_al.report import RESULT_COLUMNS

# Scores with exact ties at common thresholds and NaN, which is never above one.
SCORES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, float("nan")]), st.floats(0.0, 1.0))


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
    """0/1 scores are their own decisions at the default threshold."""

    def test_perfect(self):
        m = evaluate([1, 1, 0, 0], [1, 1, 0, 0])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_predictions(self):
        m = evaluate([0, 0, 0, 0], [1, 1, 0, 0])
        assert m.accuracy == 0.5
        assert m.recall == 0.0
        assert m.precision is None
        assert m.f1 is None

    def test_hand_counted_table(self):
        # tp 2, fp 1, tn 1, fn 0
        m = evaluate([1, 0, 1, 1], [1, 0, 0, 1])
        assert m.accuracy == 0.75
        np.testing.assert_allclose(m.precision, 2 / 3)
        assert m.recall == 1.0
        np.testing.assert_allclose(m.f1, 0.8)
        assert m.ik_reduction == 0.25

    def test_accuracy_is_one_minus_hamming(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            n = rng.integers(1, 50)
            preds = rng.integers(0, 2, size=n)
            truths = rng.integers(0, 2, size=n)
            m = evaluate(preds, truths)
            np.testing.assert_allclose(m.accuracy, 1.0 - np.mean(preds != truths))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([1, 0], [1])


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
        assert evaluate([0, 0, 1, 1, 1], [0, 1, 1, 0, 1]).ik_reduction == 0.4

    def test_no_savings(self):
        assert evaluate([1, 1, 1], [1, 0, 1]).ik_reduction == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])


class TestEvaluate:
    def test_combines_confusion_and_auc(self):
        # One of each of tp, fp, fn and tn at 0.5, and 3 of 4 pairs ranked right.
        m = evaluate([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0])
        assert astuple(m) == (0.5, 0.5, 0.5, 0.5, 0.75, 0.5)

    def test_fields_are_the_results_metric_columns(self):
        n_keys = len(RESULT_COLUMNS) - len(fields(MetricSet))
        assert tuple(f.name for f in fields(MetricSet)) == RESULT_COLUMNS[n_keys:]
        assert RESULT_COLUMNS[:n_keys] == ("strategy", "seed", "init_size", "budget", "round", "n_labeled")

    @settings(max_examples=300)
    @given(
        cases=st.lists(st.tuples(SCORES, st.integers(0, 1)), min_size=1, max_size=40),
        tau=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-0.5, 1.5)),
    )
    def test_rates_match_a_confusion_count(self, cases, tau):
        scores, truths = (np.array(c) for c in zip(*cases))
        m = evaluate(scores, truths, threshold=tau)
        n = len(cases)
        # Counted with Python's float comparison, where NaN is never above tau.
        tp = sum(s > tau and t == 1 for s, t in cases)
        fp = sum(s > tau and t == 0 for s, t in cases)
        fn = sum(not s > tau and t == 1 for s, t in cases)
        tn = n - tp - fp - fn
        assert m.ik_reduction == sum(not s > tau for s, _ in cases) / n
        assert m.accuracy == (tp + tn) / n
        assert m.precision == (tp / (tp + fp) if tp + fp else None)
        assert m.recall == (tp / (tp + fn) if tp + fn else None)
        if tp == 0 or tp + fp == 0 or tp + fn == 0:
            assert m.f1 is None
        else:
            assert m.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn), rel=1e-12)
        # 1 - recall is the share of reachable fruit the filter would skip.
        reachable = [s for s, t in cases if t == 1]
        if reachable:
            missed = sum(not s > tau for s in reachable) / len(reachable)
            assert 1.0 - m.recall == pytest.approx(missed, abs=1e-12)
        else:
            assert m.recall is None
