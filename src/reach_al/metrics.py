"""Classification metrics, ROC-AUC, and harvesting-specific statistics.

The positive class is "reachable" throughout.  Metrics that are undefined
for a given confusion table (for example precision with no positive
predictions) are reported as None rather than silently zero, so seed-level
aggregation cannot be biased by degenerate rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    auc: Optional[float]
    tp: int
    fp: int
    tn: int
    fn: int


def confusion_and_rates(preds, truths) -> MetricSet:
    """Standard confusion-table metrics; ``auc`` is left unset."""
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape or preds.ndim != 1 or len(preds) == 0:
        raise ValueError("preds and truths must be equal-length nonempty vectors")

    tp = int(np.sum((preds == 1) & (truths == 1)))
    fp = int(np.sum((preds == 1) & (truths == 0)))
    tn = int(np.sum((preds == 0) & (truths == 0)))
    fn = int(np.sum((preds == 0) & (truths == 1)))

    accuracy = (tp + tn) / len(preds)
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricSet(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        auc=None,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def roc_auc(scores, truths) -> Optional[float]:
    """Probability that a random positive outscores a random negative.

    Ties credit 0.5, matching the trapezoidal ROC area.  Returns None when
    only one class is present.  NaN scores rank as one tied group.
    """
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths, dtype=np.int64)
    if scores.shape != truths.shape or scores.ndim != 1:
        raise ValueError("scores and truths must be equal-length vectors")
    n_pos = int(truths.sum())
    n_neg = len(truths) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None

    # Average ranks over tied scores (1-based midranks): each group of
    # equal scores spans the sorted positions [start, end).
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    start = end - counts
    ranks = (0.5 * (start + end - 1) + 1.0)[group]
    pos_rank_sum = float(ranks[truths == 1].sum())
    return (pos_rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def evaluate(scores, truths, threshold: float = 0.5) -> MetricSet:
    """Metric set from reachability scores: threshold for labels, rank for AUC."""
    scores = np.asarray(scores, dtype=float)
    preds = (scores > threshold).astype(np.int64)
    return replace(confusion_and_rates(preds, truths), auc=roc_auc(scores, truths))


def ik_call_reduction(preds) -> float:
    """Fraction of candidates filtered before any IK evaluation."""
    preds = np.asarray(preds, dtype=np.int64)
    if len(preds) == 0:
        raise ValueError("need at least one prediction")
    return float(np.mean(preds == 0))

