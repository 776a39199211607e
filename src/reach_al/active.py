"""Pool-based active learning loop and its query strategies.

Each round fits the forest on the labeled set and evaluates it on the
held-out test set; then, while budget and pool last, it scores every pool
candidate with the configured strategy and queries the oracle for the top
batch.  :func:`rounds` yields every round whole; :func:`run_loop` keeps
only their metrics.  All randomness flows from the run seed, so a
(strategy, budget, seed) cell is fully reproducible.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import count

import numpy as np

from .dataset import PoolSplit
from .forest import ForestModel, TrainConfig, fit_arrays, predict_proba_matrix
from .metrics import MetricSet, evaluate

# The scorer behind each strategy name.  ``rounds`` sends the uncertainty
# names down one branch, so a sweep runs each distinct scorer once.
SCORERS = {
    "random": "random",
    **dict.fromkeys(("least_confidence", "margin", "entropy"), "uncertainty"),
    "qbc": "qbc",
}
STRATEGIES = tuple(SCORERS)
# Forests in a qbc committee, each of ``ALConfig.committee_trees`` trees.
COMMITTEE_SIZE = 5


@dataclass(frozen=True)
class ALConfig:
    """Loop settings shared by every cell; the cell itself (strategy,
    budget, seed) is passed to :func:`run_loop`."""

    batch_size: int = 50
    committee_trees: int = 25

    def __post_init__(self):
        for name in ("batch_size", "committee_trees"):
            if getattr(self, name) < 1:
                raise ValueError(f"al.{name} must be at least 1")


@dataclass
class RoundLog:
    n_labeled: int
    metrics: MetricSet


def score_uncertainty(probs) -> np.ndarray:
    """Negated gap between the two class probabilities; larger is less certain.

    This one scorer serves ``least_confidence``, ``margin`` and ``entropy``.
    On a binary problem all three are strictly decreasing in |p1 - 0.5|
    (Settles, *Active Learning Literature Survey*, 2009, sec. 3.1), so they
    rank candidates alike.  The forest grows leaves until they are pure,
    so each tree votes 0 or 1 (save where no drawn feature separates a
    leaf's rows) and p1 = k/T; on that grid the three formulas also order
    candidates identically in floating point, ties included.
    """
    p = np.atleast_2d(np.asarray(probs, dtype=float))
    return -np.abs(p[:, 1] - p[:, 0])


def score_qbc(committee_probs) -> np.ndarray:
    """Vote entropy of committee hard votes (ties vote unreachable), from a
    (members, candidates, 2) stack of class probabilities."""
    cp = np.asarray(committee_probs, dtype=float)
    k = cp.shape[0]
    if k < 2:
        raise ValueError("committee needs at least 2 members")
    f1 = (cp[:, :, 1] > 0.5).sum(axis=0) / k
    with np.errstate(divide="ignore", invalid="ignore"):
        t0, t1 = (np.where(p > 0.0, p * np.log2(p), 0.0) for p in (1.0 - f1, f1))
    return -(t0 + t1)


def select_batch(scores, b: int) -> list[int]:
    """Indices of the ``b`` highest scores; ties go to the lowest index."""
    scores = np.asarray(scores, dtype=float)
    if b > len(scores):
        raise ValueError("batch larger than the candidate pool")
    return np.argsort(-scores, kind="stable")[:b].tolist()


@dataclass(frozen=True)
class Round:
    """One round of :func:`rounds`, with row indices into ``X``: the model
    fitted on the ``labeled`` rows, its test probabilities and metrics and,
    in a query round, the pool rows scored (``candidates``), their
    ``scores`` and the ``batch`` queried; those three are None in the last."""

    n_labeled: int
    metrics: MetricSet
    model: ForestModel
    labeled: np.ndarray
    p_test: np.ndarray
    candidates: np.ndarray | None = None
    scores: np.ndarray | None = None
    batch: np.ndarray | None = None


def rounds(
    X: np.ndarray, y: np.ndarray, pools: PoolSplit, strategy: str,
    n_queries: int, seed: int, cfg: ALConfig, train_cfg: TrainConfig,
) -> Iterator[Round]:
    """Yield each round of the query loop with ``strategy`` until ``n_queries``
    labels have been acquired; ``seed`` drives every random draw.

    ``X`` (n, 9) and ``y`` (n,) are the stacked benchmark that ``pools``
    indexes; a pool label is read from ``y`` only when it is queried.
    Round 0 fits the initial labeled set alone; each later round adds the
    batch queried in the round before.  When the pool runs out, the final
    batch is short and the loop ends rather than failing.  No round is kept
    past the next, so a caller that keeps none holds one round at a time.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if n_queries < 0:
        raise ValueError("n_queries must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")

    X_test, y_test = X[pools.test], y[pools.test]
    rng_random = np.random.default_rng([seed, 0x5EED])
    labeled, pool = pools.labeled, pools.unlabeled
    for round_index in count(1):
        X_lab, y_lab = X[labeled], y[labeled]
        model = fit_arrays(X_lab, y_lab, train_cfg)
        p_test = predict_proba_matrix(model, X_test)[:, 1]
        done = Round(len(labeled), evaluate(p_test, y_test), model, labeled, p_test)
        b = min(cfg.batch_size, n_queries - (len(labeled) - len(pools.labeled)), len(pool))
        if b == 0:
            yield done
            return
        X_cand = X[pool]
        if strategy == "random":
            scores = rng_random.uniform(size=len(pool))
        elif strategy == "qbc":
            committee = []
            for k in range(COMMITTEE_SIZE):
                rng_member = np.random.default_rng([seed, 0xC0, round_index, k])
                resample = rng_member.integers(0, len(y_lab), size=len(y_lab))
                member_cfg = replace(
                    train_cfg, n_trees=cfg.committee_trees, seed=train_cfg.seed + 1 + k
                )
                member = fit_arrays(X_lab[resample], y_lab[resample], member_cfg)
                committee.append(predict_proba_matrix(member, X_cand))
            scores = score_qbc(np.stack(committee))
        else:
            scores = score_uncertainty(predict_proba_matrix(model, X_cand))
        picked = select_batch(scores, b)
        yield replace(done, candidates=pool, scores=scores, batch=pool[picked])
        labeled = np.concatenate([labeled, pool[picked]])
        pool = np.delete(pool, picked)


def run_loop(
    X: np.ndarray,
    y: np.ndarray,
    pools: PoolSplit,
    strategy: str,
    n_queries: int,
    seed: int,
    cfg: ALConfig,
    train_cfg: TrainConfig,
) -> list[RoundLog]:
    """One ``RoundLog`` per round of :func:`rounds`, which takes the same
    arguments; a cell's whole rounds would keep megabytes of models."""
    cell = rounds(X, y, pools, strategy, n_queries, seed, cfg, train_cfg)
    return [RoundLog(r.n_labeled, r.metrics) for r in cell]
