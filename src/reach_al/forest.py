"""Random-forest binary classifier built from scratch.

Trees are grown with greedy Gini splits on bootstrap resamples and vote by
averaging leaf class frequencies, which yields the smooth probabilities the
query strategies score.  Training is deterministic for a given seed: the
samples are canonically sorted before any random draw, so pool insertion
order can never change a model.

All trees grow in lockstep.  Each tree keeps its own random stream, its
bootstrap draw, a depth-first stack and its node lists.  At every step each
unfinished tree pops nodes until one can split, draws that node's features
from its own stream, and then one batched search scores every popped node of
every tree at once: the (node, feature) segments are sorted together by one
integer key on per-feature dense ranks, and a segmented cumulative sum of
the labels gives the Gini impurity at each distinct-value boundary.  The
trees are the same, bit for bit, as when grown one after another: each
stream sees the same calls in the same order, nodes are numbered in the same
depth-first order, label counts are exact integers that ties within a run of
equal values cannot change, the impurity is the same elementwise formula,
and thresholds are the same midpoints.  Ties prefer the lowest impurity,
then the lowest feature index, then the lowest threshold.  The one exception
is a midpoint that rounds onto the upper value (adjacent floats) or
overflows (+inf): the lower value is the threshold then, so a split always
sends left exactly the rows its impurity counted.

Prediction evaluates every tree at once as path-matrix products (the GEMM
strategy of Hummingbird, Nakandala et al., OSDI 2020).  A forest is compiled
once, when the model is built, into arrays padded to its largest tree: each
internal node's feature and threshold, a path matrix whose entry for (leaf,
node) is +1 if the leaf lies in the node's left subtree and -1 if in its
right one, each leaf's count of left turns, and each leaf's class
frequencies.  For a chunk of rows, ``C = x[feature] <= threshold`` holds the
decision at every node (a NaN compares false and goes right, as in a
node-by-node walk).  A leaf's row of the path matrix times ``C`` adds one
for each left turn on its path that the row takes and subtracts one for
each right turn it does not take, so it equals the leaf's left-turn count
only for the one leaf the row reaches.  The entries are small integers, so
the float32 products are exact, and the frequencies times the 0/1 match
matrix add a single nonzero term per tree.  The trees' votes are
then summed along the tree axis in tree order, so the probabilities equal,
bit for bit, those of adding one tree's leaf frequencies after another.
Rows go in chunks whose size keeps the intermediates near ``_CHUNK_ELEMENTS``
elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

FEATURE_DIM = 9
_LEAF = -1
_MIN_GAIN = 1e-12
# Rows per predict chunk times trees times max(internal nodes, leaves) per
# tree.  On the default benchmark 2**17 (about 3 MB of intermediates) was the
# fastest; 2**19 was 40-60% slower and peaked at 11 MB.
_CHUNK_ELEMENTS = 1 << 17


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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class DecisionTree:
    """Flat node arrays; ``feature[i] == -1`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # class counts of the training samples at each node


@dataclass
class ForestModel:
    trees: list
    config: TrainConfig
    _paths: tuple = field(init=False, repr=False, compare=False)  # see _compile_paths

    def __post_init__(self):
        if len(self.trees) != self.config.n_trees:
            raise ValueError("tree count must match the configuration")
        self._paths = _compile_paths(self.trees)


def _compile_paths(trees):
    """Padded path-matrix form of a forest: ``(F, TH, AT, B, P)``.

    For tree t with k internal nodes and m leaves, ``F[t, :k]`` and
    ``TH[t, :k]`` are the internal nodes' features and thresholds in node
    order; ``AT[t, j, i]`` is +1 if leaf j lies in the left subtree of
    internal node i, -1 if in the right one, else 0; ``B[t, j]`` counts the
    left turns on leaf j's path; ``P[t, :, j]`` is leaf j's class
    frequencies.  Padded nodes get threshold +inf and zero path entries,
    padded leaves ``B = NaN`` (never matched) and zero frequencies.
    """
    sizes = np.array([len(t.feature) for t in trees], dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    feature = np.concatenate([t.feature for t in trees])
    internal = feature >= 0

    def ranks(mask):
        """Position of each masked node among its tree's masked nodes."""
        before = np.concatenate(([0], np.cumsum(mask)))
        return before[:-1] - before[start][tree_of], before[start + sizes] - before[start]

    k_rank, k = ranks(internal)
    m_rank, m = ranks(~internal)
    nodes = np.flatnonzero(internal)
    parent = np.full(len(feature), -1)
    side = np.zeros(len(feature), dtype=np.float32)
    for child, turn in (("left", 1.0), ("right", -1.0)):
        ids = np.concatenate([getattr(t, child) for t in trees])[nodes] + start[tree_of[nodes]]
        parent[ids] = nodes
        side[ids] = turn

    T, kmax, mmax = len(trees), int(k.max()), int(m.max())
    F = np.zeros((T, kmax), dtype=np.int64)
    TH = np.full((T, kmax), np.inf)
    F[tree_of[nodes], k_rank[nodes]] = feature[nodes]
    TH[tree_of[nodes], k_rank[nodes]] = np.concatenate([t.threshold for t in trees])[nodes]

    leaves = np.flatnonzero(~internal)
    lt, lm = tree_of[leaves], m_rank[leaves]
    AT = np.zeros((T, mmax, kmax), dtype=np.float32)
    B = np.full((T, mmax), np.nan, dtype=np.float32)
    B[lt, lm] = 0.0
    # Walk every leaf up to its root at once, one step per depth level.
    sel, node = np.arange(len(leaves)), leaves
    while True:
        up = parent[node]
        keep = up >= 0
        sel, node, up = sel[keep], node[keep], up[keep]
        if not len(sel):
            break
        AT[lt[sel], lm[sel], k_rank[up]] = side[node]
        B[lt[sel], lm[sel]] += side[node] > 0
        node = up

    counts = np.concatenate([t.counts for t in trees])[leaves].astype(float)
    P = np.zeros((T, 2, mmax))
    P[lt, :, lm] = counts / counts.sum(axis=1, keepdims=True)
    return F, TH, AT, B, P


class _GrowingTree:
    """One tree's random stream, depth-first stack and node lists."""

    def __init__(self, rng, sample_idx, counts):
        self.rng = rng
        self.feature = [_LEAF]
        self.threshold = [0.0]
        self.left = [_LEAF]
        self.right = [_LEAF]
        self.counts = [counts]
        self.stack = [(0, sample_idx, 0)]

    def pop_splittable(self, max_depth, min_leaf):
        """Pop nodes until one may split; the others stay leaves."""
        while self.stack:
            node, idx, depth = self.stack.pop()
            c0, c1 = self.counts[node]
            if c0 == 0 or c1 == 0 or depth >= max_depth or len(idx) < 2 * min_leaf:
                continue
            return node, idx, depth
        return None

    def split(self, node, depth, f, thr, rows, k, pos_l):
        """Send the first ``k`` of ``rows``, ``pos_l`` of them labeled 1, left."""
        c0, c1 = self.counts[node]
        node_l = len(self.feature)
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = node_l
        self.right[node] = node_l + 1
        self.feature += [_LEAF, _LEAF]
        self.threshold += [0.0, 0.0]
        self.left += [_LEAF, _LEAF]
        self.right += [_LEAF, _LEAF]
        self.counts += [(k - pos_l, pos_l), (c0 - k + pos_l, c1 - pos_l)]
        # Right child pushed first so the left subtree occupies the next index,
        # keeping node numbering deterministic.
        self.stack.append((node_l + 1, rows[k:], depth + 1))
        self.stack.append((node_l, rows[:k], depth + 1))

    def to_tree(self) -> DecisionTree:
        return DecisionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=float),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            counts=np.array(self.counts, dtype=np.int64),
        )


def _best_splits(X, y, rank, idxs, feats, pos, min_leaf):
    """Lowest-impurity (feature, threshold) of many nodes in one batched search.

    ``idxs[j]`` holds node j's sample rows (repeats allowed), ``feats[j]``
    its drawn features and ``pos[j]`` its count of label 1.  Returns the
    rows of every node sorted by each drawn feature, plus, for each node
    that has an impurity-reducing split, a tuple (node, feature, threshold,
    left size, left label-1 count, start of the node's segment in the
    sorted rows).
    """
    n_nodes, m = feats.shape
    sizes = np.array([len(i) for i in idxs], dtype=np.int64)
    rows = np.concatenate(idxs)
    node = np.repeat(np.arange(n_nodes), sizes)

    # One segment per (node, drawn feature), ordered by feature rank within it.
    stride = len(X) + 1
    seg = node[:, None] * m + np.arange(m)
    key = (seg * stride + rank[rows[:, None], feats[node]]).ravel()
    order = np.argsort(key)
    key = key[order]
    rows_sorted = rows[order // m]

    seg_len = np.repeat(sizes, m)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    boundary = key[:-1] < key[1:]
    boundary[seg_end[:-1] - 1] = False  # the last entry of a segment
    cand = np.flatnonzero(boundary)
    seg_c = key[cand] // stride
    node_c = seg_c // m
    f_c = feats[node_c, seg_c % m]
    k = cand - seg_start[seg_c] + 1  # rows left of the boundary
    lo = X[rows_sorted[cand], f_c]
    hi = X[rows_sorted[cand + 1], f_c]
    # Ranks differ across a boundary; lo < hi also drops NaN neighbours.
    keep = (lo < hi) & (k >= min_leaf) & (sizes[node_c] - k >= min_leaf)
    cand, seg_c, node_c, f_c, k, lo, hi = (
        a[keep] for a in (cand, seg_c, node_c, f_c, k, lo, hi)
    )
    n_c = sizes[node_c]

    csum = np.concatenate(([0], np.cumsum(y[rows_sorted])))
    pos_l = csum[cand + 1] - csum[seg_start[seg_c]]
    # The operations and their order match a one-node search, so the
    # impurities, and with them the chosen splits, match bit for bit.
    n_left = k.astype(float)
    n_right = n_c - n_left
    p1l = pos_l / n_left
    p1r = (pos[node_c] - pos_l) / n_right
    gini_l = 1.0 - p1l * p1l - (1.0 - p1l) ** 2
    gini_r = 1.0 - p1r * p1r - (1.0 - p1r) ** 2
    weighted = (n_left * gini_l + n_right * gini_r) / n_c

    p1 = pos / sizes
    p0 = (sizes - pos) / sizes
    parent_gini = 1.0 - p0 * p0 - p1 * p1
    # Candidates come grouped by node.  A node splits at its lowest impurity
    # if that beats its parent's; ties go to the lowest feature, then the
    # lowest threshold.
    new_group = np.diff(node_c, prepend=-1) != 0
    starts = np.flatnonzero(new_group)
    w_min = np.minimum.reduceat(weighted, starts)
    ok = w_min < (parent_gini - _MIN_GAIN)[node_c[starts]]
    group = np.cumsum(new_group) - 1
    tie = np.flatnonzero(ok[group] & (weighted == w_min[group]))
    lo, hi = lo[tie], hi[tie]
    thr = 0.5 * (lo + hi)
    # A midpoint that rounds onto ``hi`` (adjacent floats) or overflows would
    # send other rows left than the k counted; ``lo`` separates them exactly.
    thr = np.where((lo <= thr) & (thr < hi), thr, lo)
    best = np.lexsort((thr, f_c[tie], node_c[tie]))
    best = best[np.diff(node_c[tie][best], prepend=-1) != 0]
    chosen = tie[best]
    splits = zip(
        node_c[chosen].tolist(),
        f_c[chosen].tolist(),
        thr[best].tolist(),
        k[chosen].tolist(),
        pos_l[chosen].tolist(),
        seg_start[seg_c[chosen]].tolist(),
    )
    return rows_sorted, splits


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
    n = len(y)
    rank = np.empty(X.shape, dtype=np.int64)
    for f in range(FEATURE_DIM):
        rank[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    # A split leaves both children smaller, so no node gets deeper than n - 1.
    max_depth = n if cfg.max_depth is None else cfg.max_depth
    min_leaf = cfg.min_samples_leaf

    trees = []
    for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(stream)
        idx = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        c1 = int(y[idx].sum())
        trees.append(_GrowingTree(rng, idx, (n - c1, c1)))

    growing = trees
    while growing:
        popped, feats = [], []
        for tree in growing:
            nxt = tree.pop_splittable(max_depth, min_leaf)
            if nxt is not None:
                popped.append((tree,) + nxt)
                feats.append(
                    tree.rng.choice(FEATURE_DIM, size=cfg.features_per_split, replace=False)
                )
        if not popped:
            break
        pos = np.array([tree.counts[node][1] for tree, node, _, _ in popped], dtype=np.int64)
        rows_sorted, splits = _best_splits(
            X, y, rank, [idx for _, _, idx, _ in popped], np.array(feats), pos, min_leaf
        )
        for j, f, thr, k, pos_l, start in splits:
            tree, node, idx, depth = popped[j]
            tree.split(node, depth, f, thr, rows_sorted[start : start + len(idx)], k, pos_l)
        growing = [p[0] for p in popped]

    return ForestModel(trees=[t.to_tree() for t in trees], config=cfg)


def predict_proba_matrix(model: ForestModel, X) -> np.ndarray:
    """(n, 2) array of (p_unreachable, p_reachable) vote averages."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"feature matrix must be (n, {FEATURE_DIM})")
    F, TH, AT, B, P = model._paths
    T, mmax, kmax = AT.shape
    step = max(1, _CHUNK_ELEMENTS // (T * max(kmax, mmax)))
    acc = np.empty((len(X), 2))
    for s in range(0, len(X), step):
        C = (np.take(X[s : s + step].T, F, axis=0) <= TH[:, :, None]).astype(np.float32)
        match = (AT @ C == B[:, :, None]).astype(float)
        acc[s : s + step] = np.add.reduce(P @ match, axis=0).T
    acc /= T
    return acc
