"""Pool-based active learning loop and its query strategies.

Each round fits the forest on the labeled set, evaluates it on the
held-out test set and logs the result; then, while budget and pool last,
it scores every pool candidate with the configured strategy and queries
the oracle for the top batch.  All randomness flows from the run seed,
so a (strategy, budget, seed) cell is fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import PoolSplit
from .forest import TrainConfig, fit_arrays, predict_proba_matrix
from .metrics import MetricSet, evaluate

# The scorer behind each strategy name.  ``run_loop`` sends the uncertainty
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


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(p), 0.0)
    return -terms.sum(axis=-1)


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
    votes = (cp[:, :, 1] > 0.5).sum(axis=0)
    f1 = votes / k
    dist = np.stack([1.0 - f1, f1], axis=-1)
    return _entropy_bits(dist)


def select_batch(scores, b: int) -> list[int]:
    """Indices of the ``b`` highest scores; ties go to the lowest index."""
    scores = np.asarray(scores, dtype=float)
    if b > len(scores):
        raise ValueError("batch larger than the candidate pool")
    return np.argsort(-scores, kind="stable")[:b].tolist()


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
    """Run the query loop with ``strategy`` until ``n_queries`` labels
    have been acquired; ``seed`` drives the random and committee draws.

    ``X`` (n, 9) and ``y`` (n,) are the stacked benchmark that ``pools``
    indexes; a pool label is read from ``y`` only when it is queried.
    Round 0 logs the model trained on the initial labeled set alone; each
    later round appends one queried batch of pool rows to the labeled set.
    When the pool runs out, the final round is short and the loop ends
    rather than failing.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if n_queries < 0:
        raise ValueError("n_queries must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")

    X_pool, y_pool = X[pools.unlabeled], y[pools.unlabeled]
    X_test, y_test = X[pools.test], y[pools.test]
    X_lab, y_lab = X[pools.labeled], y[pools.labeled]

    rng_random = np.random.default_rng([seed, 0x5EED])
    unlabeled = np.ones(len(y_pool), dtype=bool)
    logs: list[RoundLog] = []
    acquired = 0
    while True:
        model = fit_arrays(X_lab, y_lab, train_cfg)
        p_test = predict_proba_matrix(model, X_test)[:, 1]
        logs.append(RoundLog(len(y_lab), evaluate(p_test, y_test)))
        remaining = np.flatnonzero(unlabeled)
        b = min(cfg.batch_size, n_queries - acquired, len(remaining))
        if b == 0:
            return logs
        round_index = len(logs)
        X_cand = X_pool[remaining]

        if strategy == "random":
            scores = rng_random.uniform(size=len(remaining))
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

        batch = remaining[select_batch(scores, b)]

        X_lab = np.vstack([X_lab, X_pool[batch]])
        y_lab = np.concatenate([y_lab, y_pool[batch]])
        unlabeled[batch] = False
        acquired += b
