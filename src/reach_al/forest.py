"""Random-forest binary classifier built from scratch.

Every tree grows on a bootstrap resample with greedy Gini splits over
``FEATURES_PER_SPLIT`` features drawn at each node (Breiman's sqrt(d),
*Random Forests*, 2001), until each leaf is pure or its drawn features
cannot separate its rows.  The trees vote by averaging leaf class
frequencies, which yields the smooth probabilities the query strategies
score.  Training is deterministic for a given seed: the samples are
canonically sorted before any random draw, so pool insertion order can
never change a model.

All trees grow together, one depth level at a time, over flat arrays for
the whole forest.  One generator, seeded with ``TrainConfig.seed``, makes
every random draw: all the trees' bootstraps in one call, then at each level
one row of uniforms per impure node, in (tree, node) order, whose argsort's
first ``FEATURES_PER_SPLIT`` entries are that node's features.  A node holds
its distinct bootstrap rows, each with its number of draws.  One batched
search scores every impure node of a level: the (node, feature) segments are
sorted together by one integer key on per-feature dense ranks, and segmented
cumulative sums of the draws give the Gini impurity at each distinct-value
boundary.  A NaN ranks after every value and no boundary separates it from
them, so it always goes right, as in prediction.  A node splits at its lowest
impurity if that beats its own; ties prefer the lowest feature index, then
the lowest threshold.  A threshold is the midpoint of the values around its
boundary, unless that rounds onto the upper value (adjacent floats) or
overflows (+inf): the lower value is the threshold then, so a split always
sends left exactly the rows its impurity counted.  Each level then allocates
all its children at once, in their parents' order, and gathers the rows of
the impure ones in one step.  A tree's nodes are numbered in level order.

Prediction evaluates every tree at once as path-matrix products (the GEMM
strategy of Hummingbird, Nakandala et al., OSDI 2020).  A forest is compiled
once, when the model is built.  Its trees, sorted by internal-node count,
fall into ``_SIZE_GROUPS`` groups, and each group is padded only to its own
largest tree, so one deep tree no longer sets the cost of every other.  A
group holds each internal node's feature and threshold, a path matrix whose
entry for (leaf, node) is +1 if the leaf lies in the node's left subtree and
-1 if in its right one, each leaf's count of left turns, and each leaf's
class frequencies.  For a chunk of rows, ``C = x[feature] <= threshold`` holds the
decision at every node (a NaN compares false and goes right, as in a
node-by-node walk).  A leaf's row of the path matrix times ``C`` adds one
for each left turn on its path that the row takes and subtracts one for
each right turn it does not take, so it equals the leaf's left-turn count
only for the one leaf the row reaches.  The entries are small integers, so
the float32 products are exact, and the frequencies times the 0/1 match
matrix add a single nonzero term per tree; padded leaves add only +0.0.
Every group writes its trees' votes into one buffer in tree order, and the
votes are then summed along the tree axis, so the probabilities equal, bit
for bit, those of adding one tree's leaf frequencies after another.  Rows go
in chunks whose size keeps every intermediate within ``_CHUNK_ELEMENTS``
elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEATURE_DIM = 9
FEATURES_PER_SPLIT = 3
_LEAF = -1
_MIN_GAIN = 1e-12
# Rows per predict chunk times trees times max(internal nodes, leaves) per
# tree.  On the default benchmark 2**17 (about 3 MB of intermediates) was the
# fastest; 2**19 was 40-60% slower and peaked at 11 MB.
_CHUNK_ELEMENTS = 1 << 17
# Predict pads each of this many groups of similar-sized trees to its own
# largest tree, not the whole forest to its largest.
_SIZE_GROUPS = 4


@dataclass(frozen=True)
class TrainConfig:
    """Forest size and seed; everything else about a tree is fixed."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("forest.n_trees must be at least 1")
        if self.seed < 0:
            raise ValueError("forest.seed must be nonnegative")


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
    _paths: tuple = field(repr=False, compare=False)  # see _compile_paths


def _compile_paths(feature, threshold, left, right, counts, sizes):
    """Path-matrix form of a forest in size groups: ``((trees, F, TH, AT, B, P), ...)``.

    The arguments are the trees' node arrays laid end to end, ``sizes[t]``
    nodes for tree t, with ``left`` and ``right`` indexing within a tree.
    The trees, sorted by internal-node count, are cut into ``_SIZE_GROUPS``
    groups of about equal count, and each group is padded to its own
    largest tree; ``trees`` holds a group's tree indices.  For its i-th tree,
    with k internal nodes and m leaves, ``F[i, :k]`` and ``TH[i, :k]`` are
    the internal nodes' features and thresholds in node order;
    ``AT[i, j, c]`` is +1 if leaf j lies in the left subtree of internal
    node c, -1 if in the right one, else 0; ``B[i, j]`` counts the left
    turns on leaf j's path; ``P[i, :, j]`` is leaf j's class frequencies.
    Padded nodes get threshold +inf and zero path entries, padded leaves
    ``B = NaN`` (never matched) and zero frequencies.
    """
    start = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(len(sizes)), sizes)
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
    for child, turn in ((left, 1.0), (right, -1.0)):
        ids = child[nodes] + start[tree_of[nodes]]
        parent[ids] = nodes
        side[ids] = turn

    # Walk every leaf up to its root at once, one step per depth level,
    # collecting each step's (leaf, internal node, turn).
    leaves = np.flatnonzero(~internal)
    steps = [(leaves[:0], nodes[:0], side[:0])]
    sel, node = np.arange(len(leaves)), leaves
    while True:
        up = parent[node]
        keep = up >= 0
        sel, node, up = sel[keep], node[keep], up[keep]
        if not len(sel):
            break
        steps.append((sel, up, side[node]))
        node = up
    step_leaf, step_node, step_turn = (np.concatenate(a) for a in zip(*steps))
    left_turns = np.bincount(step_leaf, weights=step_turn > 0, minlength=len(leaves))
    freq = counts[leaves].astype(float)
    freq /= freq.sum(axis=1, keepdims=True)

    T = len(sizes)
    slot = np.empty(T, dtype=np.int64)  # a tree's position within its group
    groups = []
    for trees in np.array_split(np.argsort(k, kind="stable"), _SIZE_GROUPS):
        if not len(trees):
            continue
        slot[trees] = np.arange(len(trees))
        member = np.zeros(T, dtype=bool)
        member[trees] = True
        n, kmax, mmax = len(trees), int(k[trees].max()), int(m[trees].max())
        g_nodes = nodes[member[tree_of[nodes]]]
        F = np.zeros((n, kmax), dtype=np.int64)
        TH = np.full((n, kmax), np.inf)
        F[slot[tree_of[g_nodes]], k_rank[g_nodes]] = feature[g_nodes]
        TH[slot[tree_of[g_nodes]], k_rank[g_nodes]] = threshold[g_nodes]
        g_leaves = np.flatnonzero(member[tree_of[leaves]])
        lt, lm = slot[tree_of[leaves[g_leaves]]], m_rank[leaves[g_leaves]]
        B = np.full((n, mmax), np.nan, dtype=np.float32)
        B[lt, lm] = left_turns[g_leaves]
        P = np.zeros((n, 2, mmax))
        P[lt, :, lm] = freq[g_leaves]
        AT = np.zeros((n, mmax, kmax), dtype=np.float32)
        g_steps = member[tree_of[leaves[step_leaf]]]
        s_leaf = leaves[step_leaf[g_steps]]
        AT[slot[tree_of[s_leaf]], m_rank[s_leaf], k_rank[step_node[g_steps]]] = step_turn[g_steps]
        groups.append((trees, F, TH, AT, B, P))
    return tuple(groups)


def _chunk_rows(groups) -> int:
    """Rows per predict chunk: as if every tree were padded to the widest
    group's width, so that neither a group's intermediates nor the (trees,
    2, rows) vote buffer exceeds ``_CHUNK_ELEMENTS``."""
    n_trees = sum(len(g[0]) for g in groups)
    width = max([2] + [max(AT.shape[1:]) for _, _, _, AT, _, _ in groups])
    return max(1, _CHUNK_ELEMENTS // (n_trees * width))


@np.errstate(divide="ignore", invalid="ignore")  # a segment's last entry leaves no row right
def _best_splits(y, values, rank, rows, weight, entries, feats, counts):
    """Lowest-impurity (feature, threshold) of many nodes in one batched search.

    Node j holds ``entries[j]`` distinct sample rows, laid end to end over
    the nodes in ``rows``, each drawn ``weight`` times by the bootstrap;
    ``counts[j]`` counts the draws of each label, and ``feats[j]`` holds
    the node's drawn features in increasing order.  ``rank[f, i]`` is the
    position of row i's feature f in ``values[f]``, or the row count if it
    is NaN.  Returns the rows and weights of every node sorted by each
    drawn feature, then, for each node that has an impurity-reducing split,
    in node order: the node, feature, threshold, left entries, left draws,
    left label-1 draws and start of its segment in the sorted rows.
    """
    n_nodes, m = feats.shape

    # One segment per (node, drawn feature), ordered by feature rank within it.
    n = rank.shape[1]
    stride = n + 1
    key = rank.ravel()[np.repeat(feats * n, entries, axis=0) + rows[:, None]]
    key += np.repeat(np.arange(n_nodes * m).reshape(n_nodes, m) * stride, entries, axis=0)
    key = key.ravel()
    order = np.argsort(key)
    key = key[order]
    rows, weight = rows[order // m], weight[order // m]

    # Every entry is scored as the last one left of a split: k draws go left,
    # pos_l of them labeled 1.  Only entries before a change of rank within
    # their segment, to a rank that is not NaN's, are boundaries.
    seg_len = np.repeat(entries, m)
    seg_start = np.cumsum(seg_len) - seg_len
    csum = np.concatenate(([0], np.cumsum(weight)))
    k = csum[1:] - np.repeat(csum[seg_start], seg_len)
    csum = np.concatenate(([0], np.cumsum(weight * y[rows])))
    pos_l = csum[1:] - np.repeat(csum[seg_start], seg_len)
    boundary = np.append((key[:-1] < key[1:]) & (key[1:] % stride < n), False)
    boundary[seg_start[1:] - 1] = False  # a segment's last entry
    # The operations and their order match a one-node search, so the
    # impurities, and with them the chosen splits, match bit for bit.
    sizes, pos = counts.sum(axis=1), counts[:, 1]
    node_len = entries * m
    n_c = np.repeat(sizes, node_len)
    n_left = k.astype(float)
    n_right = n_c - n_left
    p1l = pos_l / n_left
    p1r = (np.repeat(pos, node_len) - pos_l) / n_right
    gini_l = 1.0 - p1l * p1l - (1.0 - p1l) ** 2
    gini_r = 1.0 - p1r * p1r - (1.0 - p1r) ** 2
    weighted = np.where(boundary, (n_left * gini_l + n_right * gini_r) / n_c, np.inf)

    p1 = pos / sizes
    p0 = (sizes - pos) / sizes
    parent_gini = 1.0 - p0 * p0 - p1 * p1
    # A node splits at its lowest impurity if that beats its parent's.  Its
    # segments are contiguous and in increasing feature order, so its first
    # entry at that impurity has the lowest feature, then the lowest threshold.
    w_min = np.minimum.reduceat(weighted, seg_start[::m])
    w_min[~(w_min < parent_gini - _MIN_GAIN)] = np.nan
    tie = np.flatnonzero(weighted == np.repeat(w_min, node_len))
    seg = key[tie] // stride
    chosen = np.diff(seg // m, prepend=-1) != 0
    tie, seg = tie[chosen], seg[chosen]
    node = seg // m
    f = feats[node, seg % m]
    lo = values[f, key[tie] % stride]
    hi = values[f, key[tie + 1] % stride]
    thr = 0.5 * (lo + hi)
    # A midpoint that rounds onto ``hi`` (adjacent floats) or overflows would
    # send other rows left than the k counted; ``lo`` separates them exactly.
    thr = np.where((lo <= thr) & (thr < hi), thr, lo)
    e = tie - seg_start[seg] + 1
    return rows, weight, node, f, thr, e, k[tie], pos_l[tie], seg_start[seg]


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
    X, y = X[order], y[order]
    n = len(y)
    rank = np.empty((FEATURE_DIM, n), dtype=np.int64)
    values = np.empty((FEATURE_DIM, n))
    for f in range(FEATURE_DIM):
        u, rank[f] = np.unique(X[:, f], return_inverse=True)
        values[f, : len(u)] = u
    rank[np.isnan(X.T)] = n  # after every value; no split separates NaN from them

    # Level by level, the level's nodes in (tree, node) order: their trees,
    # class counts and distinct rows, and the rows of the impure ones, each
    # with its number of bootstrap draws, end to end.
    rng = np.random.default_rng(cfg.seed)
    T = cfg.n_trees
    boot = rng.integers(0, n, size=(T, n)) + n * np.arange(T)[:, None]
    draws = np.bincount(boot.ravel(), minlength=T * n).reshape(T, n)
    c1 = draws @ y
    tree, counts, entries = np.arange(T), np.stack([n - c1, c1], axis=1), np.count_nonzero(draws, 1)
    draws = draws[counts.min(axis=1) > 0]
    rows = np.flatnonzero(draws)
    weight, rows = draws.ravel()[rows], rows % n
    levels, first = [], 0  # first: the level's first node in level order
    while len(tree):
        feature = np.full(len(tree), _LEAF)
        threshold = np.zeros(len(tree))
        left = np.full(len(tree), _LEAF)  # in level order; the right child is next
        impure = np.flatnonzero(counts.min(axis=1) > 0)
        nodes, child_counts, child_entries = impure[:0], counts[:0], entries[:0]
        if len(impure):
            feats = np.argsort(rng.random((len(impure), FEATURE_DIM)), axis=1)
            feats = np.sort(feats[:, :FEATURES_PER_SPLIT], axis=1)
            rows, weight, j, f, thr, e, k, pos_l, start = _best_splits(
                y, values, rank, rows, weight, entries[impure], feats, counts[impure]
            )
            nodes = impure[j]
            feature[nodes], threshold[nodes] = f, thr
            left[nodes] = first + len(tree) + 2 * np.arange(len(j))
            child_l = np.stack([k - pos_l, pos_l], axis=1)
            child_counts = np.stack([child_l, counts[nodes] - child_l], axis=1).reshape(-1, 2)
            child_entries = np.stack([e, entries[nodes] - e], axis=1).ravel()
            # Each split node's segment holds its left rows, then its right.
            seg_start = np.stack([start, start + e], axis=1).ravel()
            keep = child_counts.min(axis=1) > 0
            seg_start, seg_len = seg_start[keep], child_entries[keep]
            take = np.repeat(seg_start - (np.cumsum(seg_len) - seg_len), seg_len)
            take += np.arange(len(take))
            rows, weight = rows[take], weight[take]
        levels.append((tree, feature, threshold, left, counts))
        first += len(tree)
        tree, counts, entries = np.repeat(tree[nodes], 2), child_counts, child_entries

    # Lay each tree's nodes end to end in level order and number them within it.
    tree, feature, threshold, left, counts = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=T)
    local = np.empty(len(tree), dtype=np.int64)
    local[order] = np.arange(len(tree)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    left = left[order]
    split = left >= 0
    left[split] = local[left[split]]
    right = np.where(split, left + 1, _LEAF)
    feature, threshold, counts = feature[order], threshold[order], counts[order]
    end = np.cumsum(sizes)
    trees = [
        DecisionTree(feature[i:j], threshold[i:j], left[i:j], right[i:j], counts[i:j])
        for i, j in zip((end - sizes).tolist(), end.tolist())
    ]
    paths = _compile_paths(feature, threshold, left, right, counts, sizes)
    return ForestModel(trees=trees, config=cfg, _paths=paths)


def predict_proba_matrix(model: ForestModel, X) -> np.ndarray:
    """(n, 2) array of (p_unreachable, p_reachable) vote averages."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"feature matrix must be (n, {FEATURE_DIM})")
    groups = model._paths
    T = len(model.trees)
    step = _chunk_rows(groups)
    acc = np.empty((len(X), 2))
    for s in range(0, len(X), step):
        Xc = np.ascontiguousarray(X[s : s + step].T)
        votes = np.empty((T, 2, Xc.shape[1]))  # in tree order
        for trees, F, TH, AT, B, P in groups:
            C = (np.take(Xc, F, axis=0) <= TH[:, :, None]).astype(np.float32)
            match = (AT @ C == B[:, :, None]).astype(float)
            votes[trees] = P @ match
        acc[s : s + step] = np.add.reduce(votes, axis=0).T
    acc /= T
    return acc
