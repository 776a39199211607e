import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reach_al import active
from reach_al.active import SCORERS, ALConfig, run_loop, score_qbc, score_uncertainty, select_batch
from reach_al.dataset import PoolSplit
from reach_al.forest import TrainConfig, fit_arrays


def make_pools(rng, n_labeled=10, n_pool=300, n_test=100):
    """A stacked (X, y), labeled rows first, then the pool, then the test
    rows, with the split that indexes it."""
    n = n_labeled + n_pool + n_test
    X = rng.normal(size=(n, 9))
    y = (X[:, 0] + 0.3 * X[:, 3] > 0).astype(np.int64)
    rows = np.arange(n)
    split = PoolSplit(
        labeled=rows[:n_labeled],
        unlabeled=rows[n_labeled : n_labeled + n_pool],
        test=rows[n_labeled + n_pool :],
    )
    return X, y, split


SMALL_TRAIN = TrainConfig(n_trees=15, seed=0)


def run_recorded(monkeypatch, *args):
    """``run_loop(*args)``'s logs, and the rows of ``X`` each round queried
    (none in round 0).  They are read through a wrapped
    ``active.fit_arrays``: each fit of the round's model (on ``train_cfg``;
    committee members use other settings) holds the rows of the one before
    it plus the batch queried in between."""
    X, train_cfg, fits = args[0], args[-1], []

    def recording_fit(X_fit, y_fit, fit_cfg):
        if fit_cfg == train_cfg:
            fits.append(X_fit)
        return fit_arrays(X_fit, y_fit, fit_cfg)

    monkeypatch.setattr(active, "fit_arrays", recording_fit)
    logs = run_loop(*args)
    row_of = {x.tobytes(): i for i, x in enumerate(X)}
    added = [later[len(earlier) :] for earlier, later in zip(fits, fits[1:])]
    return logs, [[]] + [[row_of[x.tobytes()] for x in rows] for rows in added]


# Textbook uncertainty scores (Settles 2009, sec. 3.1), written out as the
# references that the single scorer must rank like.
def least_confidence(probs):
    return 1.0 - np.max(probs, axis=1)


def margin(probs):
    top_two = np.sort(probs, axis=1)[:, -2:]
    return -(top_two[:, 1] - top_two[:, 0])


def entropy(probs):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log2(probs), 0.0)
    return -terms.sum(axis=1)


REFERENCES = (least_confidence, margin, entropy)


class TestScores:
    def test_least_confidence_examples(self):
        np.testing.assert_allclose(least_confidence(np.array([(0.5, 0.5)])), [0.5])
        np.testing.assert_allclose(least_confidence(np.array([(1.0, 0.0)])), [0.0])
        np.testing.assert_allclose(least_confidence(np.array([(0.3, 0.7)])), [0.3])

    def test_margin_examples(self):
        for score in (margin, score_uncertainty):
            np.testing.assert_allclose(score(np.array([(0.5, 0.5)])), [0.0])
            np.testing.assert_allclose(score(np.array([(0.9, 0.1)])), [-0.8])

    def test_entropy_examples(self):
        np.testing.assert_allclose(entropy(np.array([(0.5, 0.5)])), [1.0])
        np.testing.assert_allclose(entropy(np.array([(1.0, 0.0)])), [0.0])
        np.testing.assert_allclose(entropy(np.array([(0.25, 0.75)])), [0.8113], atol=1e-4)

    def test_margin_matches_least_confidence_order_on_grid(self):
        # Exhaustive check over the 0.01 probability grid: the two scores
        # never order a pair in opposite directions.
        ps = np.arange(0.0, 1.0001, 0.01)
        probs = np.column_stack([1 - ps, ps])
        lc = least_confidence(probs)
        mg = score_uncertainty(probs)
        d_lc = np.sign(lc[:, None] - lc[None, :])
        d_mg = np.sign(mg[:, None] - mg[None, :])
        assert not ((d_lc * d_mg) < 0).any()

    def test_qbc_unanimity_is_zero(self):
        committee = np.full((4, 7, 2), (0.1, 0.9))
        np.testing.assert_allclose(score_qbc(committee), np.zeros(7))

    def test_qbc_even_split_is_one_bit(self):
        committee = np.zeros((4, 1, 2))
        committee[:2, 0] = (0.2, 0.8)
        committee[2:, 0] = (0.8, 0.2)
        np.testing.assert_allclose(score_qbc(committee), [1.0])

    def test_qbc_four_one_split(self):
        committee = np.zeros((5, 1, 2))
        committee[:4, 0] = (0.1, 0.9)
        committee[4:, 0] = (0.9, 0.1)
        np.testing.assert_allclose(score_qbc(committee), [0.7219], atol=1e-4)

    def test_qbc_ignores_probability_magnitudes_when_unanimous(self):
        committee = np.zeros((3, 1, 2))
        committee[0, 0] = (0.49, 0.51)
        committee[1, 0] = (0.1, 0.9)
        committee[2, 0] = (0.0, 1.0)
        np.testing.assert_allclose(score_qbc(committee), [0.0])

    def test_qbc_tie_votes_unreachable(self):
        committee = np.full((3, 1, 2), (0.5, 0.5))
        np.testing.assert_allclose(score_qbc(committee), [0.0])


class TestSelectBatch:
    def test_ties_break_to_lowest_index(self):
        assert select_batch([0.1, 0.9, 0.9, 0.2], 2) == [1, 2]

    def test_full_pool(self):
        assert sorted(select_batch([0.3, 0.1, 0.2], 3)) == [0, 1, 2]

    def test_batch_too_large(self):
        with pytest.raises(ValueError):
            select_batch([0.1], 2)

    def test_matches_argsort(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            scores = rng.random(40)
            batch = select_batch(scores, 5)
            expected = list(np.argsort(-scores, kind="stable")[:5])
            assert batch == expected


class TestUncertaintyFamilyEquivalence:
    def test_identical_batches_on_random_pools(self):
        rng = np.random.default_rng(61)
        for _ in range(1200):
            n = int(rng.integers(5, 120))
            b = int(rng.integers(1, n + 1))
            p1 = rng.random(n)
            probs = np.column_stack([1 - p1, p1])
            expected = select_batch(score_uncertainty(probs), b)
            for reference in REFERENCES:
                assert select_batch(reference(probs), b) == expected, reference.__name__

    @given(st.data())
    def test_forest_vote_pools_select_like_every_reference(self, data):
        # A forest of T pure-leaf trees yields p1 = k/T, with p0 = (T - k)/T
        # accumulated separately, as predict_proba_matrix does.
        n_trees = data.draw(st.integers(1, 200), label="trees")
        votes = np.array(
            data.draw(st.lists(st.integers(0, n_trees), min_size=1, max_size=300), label="votes")
        )
        b = data.draw(st.integers(1, len(votes)), label="batch")
        probs = np.column_stack([(n_trees - votes) / n_trees, votes / n_trees])
        expected = select_batch(score_uncertainty(probs), b)
        for reference in REFERENCES:
            assert select_batch(reference(probs), b) == expected, reference.__name__


class TestRunLoop:
    def test_bad_cell_or_settings_rejected(self):
        # The cell arrives as arguments, so run_loop checks it.
        pools = make_pools(np.random.default_rng(61))
        for cell, message in (
            (("bogus", 10, 0), "unknown strategy 'bogus'"),
            (("random", -1, 0), "n_queries must be nonnegative"),
            (("random", 10, -1), "seed must be nonnegative"),
        ):
            with pytest.raises(ValueError, match=message):
                run_loop(*pools, *cell, ALConfig(), SMALL_TRAIN)
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            ALConfig(batch_size=0)

    def test_round_arithmetic_single_round(self, monkeypatch):
        rng = np.random.default_rng(62)
        pools = make_pools(rng, n_labeled=10, n_pool=120)
        args = ("entropy", 50, 0, ALConfig(batch_size=50), SMALL_TRAIN)
        logs, queried = run_recorded(monkeypatch, *pools, *args)
        assert [log.n_labeled for log in logs] == [10, 60]
        assert [len(batch) for batch in queried] == [0, 50]

    def test_round_arithmetic_two_rounds(self):
        rng = np.random.default_rng(63)
        pools = make_pools(rng, n_labeled=50, n_pool=250)
        logs = run_loop(*pools, "margin", 100, 0, ALConfig(batch_size=50), SMALL_TRAIN)
        assert [log.n_labeled for log in logs] == [50, 100, 150]

    def test_partial_final_batch(self):
        rng = np.random.default_rng(64)
        pools = make_pools(rng, n_labeled=10, n_pool=100)
        logs = run_loop(*pools, "random", 50, 0, ALConfig(batch_size=20), SMALL_TRAIN)
        assert [log.n_labeled for log in logs] == [10, 30, 50, 60]

    def test_pool_exhaustion_shortens_final_round(self):
        rng = np.random.default_rng(65)
        pools = make_pools(rng, n_labeled=10, n_pool=30)
        logs = run_loop(*pools, "random", 50, 0, ALConfig(batch_size=20), SMALL_TRAIN)
        assert logs[-1].n_labeled == 40

    def test_determinism(self, monkeypatch):
        rng = np.random.default_rng(66)
        pools = make_pools(rng)
        rng2 = np.random.default_rng(66)
        pools2 = make_pools(rng2)
        args = ("random", 30, 5, ALConfig(batch_size=10), SMALL_TRAIN)
        logs_a, queried_a = run_recorded(monkeypatch, *pools, *args)
        logs_b, queried_b = run_recorded(monkeypatch, *pools2, *args)
        assert queried_a == queried_b
        for a, b in zip(logs_a, logs_b):
            assert a.metrics == b.metrics

    def test_names_sharing_a_scorer_log_alike(self, monkeypatch):
        # A sweep runs each scorer in SCORERS once and writes its rows
        # under every name that maps to it.
        pools = make_pools(np.random.default_rng(68))
        by_scorer = {}
        for strategy, scorer in SCORERS.items():
            args = (strategy, 30, 3, ALConfig(batch_size=10), SMALL_TRAIN)
            logs, queried = run_recorded(monkeypatch, *pools, *args)
            by_scorer.setdefault(scorer, set()).add(
                tuple((tuple(batch), log.metrics) for batch, log in zip(queried, logs))
            )
        assert sorted(by_scorer) == ["qbc", "random", "uncertainty"]
        assert all(len(runs) == 1 for runs in by_scorer.values())

    def test_queried_indices_never_repeat(self, monkeypatch):
        rng = np.random.default_rng(67)
        pools = make_pools(rng, n_pool=200)
        for strategy in ("random", "entropy", "qbc"):
            args = (strategy, 60, 1, ALConfig(batch_size=15), SMALL_TRAIN)
            _, queried = run_recorded(monkeypatch, *pools, *args)
            seen = [i for batch in queried for i in batch]
            assert len(seen) == len(set(seen)) == 60
            assert set(seen) <= set(pools[2].unlabeled)

    def test_constant_labels_drive_accuracy_to_majority_rate(self):
        rng = np.random.default_rng(68)
        X, y, split = make_pools(rng, n_labeled=10, n_pool=200, n_test=150)
        y[split.labeled] = 1
        y[split.unlabeled] = 1
        logs = run_loop(X, y, split, "random", 40, 2, ALConfig(batch_size=20), SMALL_TRAIN)
        majority = np.mean(y[split.test] == 1)
        assert logs[-1].metrics.accuracy == pytest.approx(majority, abs=1e-9)

    def test_pool_labels_read_only_when_queried(self, monkeypatch):
        # Flipping the label of every pool row that no round queries must
        # leave every round unchanged.
        for strategy in ("random", "entropy", "qbc"):
            X, y, split = make_pools(np.random.default_rng(69), n_pool=200)
            args = (strategy, 30, 3, ALConfig(batch_size=10), SMALL_TRAIN)
            logs, queried = run_recorded(monkeypatch, X, y, split, *args)
            hidden = np.setdiff1d(split.unlabeled, [i for batch in queried for i in batch])
            y[hidden] = 1 - y[hidden]
            flipped, flipped_queried = run_recorded(monkeypatch, X, y, split, *args)
            assert flipped_queried == queried
            assert [log.metrics for log in flipped] == [log.metrics for log in logs]
