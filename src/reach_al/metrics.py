"""Classification metrics, ROC-AUC, and harvesting-specific statistics.

The positive class is "reachable" throughout.  Metrics that are undefined
for a given confusion table (for example precision with no positive
predictions) are reported as None rather than silently zero, so seed-level
aggregation cannot be biased by degenerate rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class MetricSet:
    """One evaluation; the fields are ``results.csv``'s metric columns, in order."""

    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    auc: Optional[float]
    ik_reduction: float


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
    """Metrics of the decision "reachable iff score > ``threshold``" on 0/1
    ``truths``, and the AUC of the scores' ranking.

    ``ik_reduction`` is the share of candidates decided unreachable, whose
    IK call the filter saves; ``1 - recall`` is the share of reachable
    fruit it misses.  A NaN score is never above the threshold.
    """
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths, dtype=np.int64)
    if scores.shape != truths.shape or scores.ndim != 1 or len(scores) == 0:
        raise ValueError("scores and truths must be equal-length nonempty vectors")

    preds, pos = scores > threshold, truths == 1
    tp = int(np.sum(preds & pos))
    fp = int(np.sum(preds & ~pos))
    fn = int(np.sum(~preds & pos))
    n = len(scores)
    tn = n - tp - fp - fn

    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricSet(
        accuracy=(tp + tn) / n,
        precision=precision,
        recall=recall,
        f1=f1,
        auc=roc_auc(scores, truths),
        ik_reduction=(tn + fn) / n,
    )
