"""Random-forest binary classifier built from scratch.

Trees are grown with greedy Gini splits on bootstrap resamples and vote by
averaging leaf class frequencies, which yields the smooth probabilities the
query strategies score.  Training is deterministic for a given seed: the
samples are canonically sorted before any random draw, so pool insertion
order can never change a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

FEATURE_DIM = 9
_LEAF = -1
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Forest hyperparameters; the defaults mirror the common library ones."""

    n_trees: int = 100
    max_depth: Optional[int] = None
    min_samples_leaf: int = 1
    features_per_split: int = 3
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if not 1 <= self.features_per_split <= FEATURE_DIM:
            raise ValueError(f"features_per_split must lie in [1, {FEATURE_DIM}]")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")


@dataclass
class DecisionTree:
    """Flat node arrays; ``feature[i] == -1`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # class counts of the training samples at each node

    def leaf_proba(self, X: np.ndarray) -> np.ndarray:
        """Class frequencies of the leaf each row lands in, shape (n, 2)."""
        idx = np.zeros(len(X), dtype=np.int64)
        while True:
            internal = self.feature[idx] >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            node = idx[rows]
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            idx[rows] = np.where(go_left, self.left[node], self.right[node])
        c = self.counts[idx].astype(float)
        return c / c.sum(axis=1, keepdims=True)


@dataclass
class ForestModel:
    trees: list
    config: TrainConfig

    def __post_init__(self):
        if len(self.trees) != self.config.n_trees:
            raise ValueError("tree count must match the configuration")


def _best_split(X, y, idx, feats, min_leaf):
    """Lowest-impurity (feature, threshold) over midpoint candidates.

    Ties prefer the lowest feature index, then the lowest threshold.
    Returns None when no split reduces impurity.
    """
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
        if w[j] < parent_gini - _MIN_GAIN and (best is None or w[j] < best[0]):
            best = (w[j], f, thr[j])
    return best


def _grow_tree(X, y, rng, cfg: TrainConfig) -> DecisionTree:
    n = len(y)
    if cfg.bootstrap:
        sample_idx = rng.integers(0, n, size=n)
    else:
        sample_idx = np.arange(n)

    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node():
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
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
        feats = rng.choice(FEATURE_DIM, size=cfg.features_per_split, replace=False)
        split = _best_split(X, y, idx, feats, cfg.min_samples_leaf)
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
        # Right child pushed first so the left subtree occupies the next index,
        # keeping node numbering deterministic.
        stack.append((node_r, idx[~mask], depth + 1))
        stack.append((node_l, idx[mask], depth + 1))

    return DecisionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
    )


def _canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.lexsort((y,) + tuple(X[:, f] for f in range(X.shape[1] - 1, -1, -1)))


def fit_arrays(X, y, cfg: TrainConfig) -> ForestModel:
    """Train on an (n, 9) feature matrix and 0/1 label vector."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"feature matrix must be (n, {FEATURE_DIM})")
    if len(X) == 0:
        raise ValueError("cannot train on an empty sample set")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")

    order = _canonical_order(X, y)
    X = np.ascontiguousarray(X[order])
    y = y[order]

    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    trees = [_grow_tree(X, y, np.random.default_rng(s), cfg) for s in streams]
    return ForestModel(trees=trees, config=cfg)


def predict_proba_matrix(model: ForestModel, X) -> np.ndarray:
    """(n, 2) array of (p_unreachable, p_reachable) vote averages."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"feature matrix must be (n, {FEATURE_DIM})")
    acc = np.zeros((len(X), 2), dtype=float)
    for tree in model.trees:
        acc += tree.leaf_proba(X)
    return acc / len(model.trees)
