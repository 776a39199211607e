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

Prediction applies QuickScorer's exit-leaf rule (Lucchese et al., SIGIR
2015) to every tree at once, through per-feature threshold bins.  A forest
is compiled once, when the model is built.  Each tree's leaves are numbered
left to right, so a node's left subtree holds a run of them, and a row's
state in a tree is a mask of one bit per leaf, in the narrowest words (8 to
64 bits) that hold every tree's leaves.  The forest's distinct thresholds on
a feature cut its values into bins, and each bin's table row holds, for
every tree, the AND of ~(leaves of the left subtree) over the tree's nodes
on that feature that send the bin's values right.  So a node clears its
left subtree from each row it sends right, whether or not the row passes
it.  The leaf a row reaches survives, as each node above it that holds it on
the left sends the row left, and every leaf left of it is cleared by the
node on the row's path where their paths part: the lowest set bit of the AND
of the row's nine table rows is the leaf.  One branch-free binary search
finds a chunk's bins on all nine features at once.  A NaN is searched as
+inf, above every threshold (none is +inf), so it goes right at every node,
as in a node-by-node walk.  The leaves' class frequencies are gathered in
(tree, row) order and summed along the tree axis, so the probabilities
equal, bit for bit, those of adding one tree's leaf frequencies after
another.  Rows go in chunks of at most ``_CHUNK_ELEMENTS`` (row, tree, mask
word) elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEATURE_DIM = 9
FEATURES_PER_SPLIT = 3
_LEAF = -1
_MIN_GAIN = 1e-12
# Rows per predict chunk times trees times mask words per tree.
_CHUNK_ELEMENTS = 1 << 16
_LOW = np.array([(1 << i) - 1 for i in range(65)], dtype=np.uint64)  # i low bits set


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
    _bins: tuple = field(repr=False, compare=False)  # see _compile_bins


def _compile_bins(tree, feature, threshold, left, counts, level_sizes):
    """Bin-table form of a forest: ``(cuts, shift, table, freq)``.

    The arguments are the forest's nodes in level order, ``level_sizes[i]``
    nodes at depth i, with ``left`` indexing that order and each right
    child next to its left one.  A tree's leaves are numbered left to right,
    and its leaf mask is W words of B bits: the narrowest of 8, 16, 32 and 64
    that holds every tree's leaves, else 64.  Row f of ``cuts`` holds feature
    f's distinct thresholds in increasing order, padded with +inf to the
    width N = 2**k - 1 shared by all features.  ``table`` is a (bins, trees,
    W) array of uint{B}, feature after feature; the bin of feature f whose
    values are above b of its cuts is row ``shift[f] + f N + b``, and holds
    the AND of ~(leaves of the left subtree) over the tree's f-nodes whose
    threshold is one of those b.  ``freq[M t + j]`` holds the class
    frequencies of leaf j of tree t, for M the most leaves in any tree (zero
    past a tree's own).
    """
    T = level_sizes[0]
    split = np.flatnonzero(left >= 0)
    by_level = np.split(split, np.searchsorted(split, np.cumsum(level_sizes)[:-1]))
    below = np.ones(len(tree), dtype=np.int64)  # leaves under each node
    first = np.zeros(len(tree), dtype=np.int64)  # the number of its first leaf
    for nodes in by_level[::-1]:
        below[nodes] = below[left[nodes]] + below[left[nodes] + 1]
    for nodes in by_level:
        first[left[nodes]] = first[nodes]
        first[left[nodes] + 1] = first[nodes] + below[left[nodes]]
    M = int(below[:T].max())
    B = 8 << min(3, max(0, (M - 1).bit_length() - 3))
    low = _LOW[: B + 1].astype(f"uint{B}")
    # Each split node's mask: every leaf but the run of its left subtree's.
    lo = first[split, None] - B * np.arange(-(-M // B))
    keep = ~low[np.clip(lo + below[left[split], None], 0, B)] | low[np.clip(lo, 0, B)]

    f, thr = feature[split], threshold[split]
    distinct = [np.unique(thr[f == j]) for j in range(FEATURE_DIM)]
    n = np.array([len(c) for c in distinct])
    start = np.cumsum(n + 1) - (n + 1)  # each feature's first table row
    cuts = np.full((FEATURE_DIM, (1 << int(n.max()).bit_length()) - 1), np.inf)
    row = np.empty(len(split), dtype=np.int64)
    for j, values in enumerate(distinct):
        cuts[j, : n[j]] = values
        row[f == j] = start[j] + 1 + np.searchsorted(values, thr[f == j])
    table = np.full((int((n + 1).sum()), T, keep.shape[1]), low[B])
    np.bitwise_and.at(table, (row, tree[split]), keep)
    for j in range(FEATURE_DIM):  # a node clears every bin above its cut
        part = table[start[j] : start[j] + n[j] + 1]
        np.bitwise_and.accumulate(part, axis=0, out=part)
    leaves = np.flatnonzero(left < 0)
    freq = np.zeros((T * M, 2))
    c = counts[leaves].astype(float)
    freq[M * tree[leaves] + first[leaves]] = c / c.sum(axis=1, keepdims=True)
    shift = start - cuts.shape[1] * np.arange(FEATURE_DIM)
    return cuts, shift, table, freq


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
    bins = _compile_bins(tree, feature, threshold, left, counts, [len(a[0]) for a in levels])
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
    return ForestModel(trees=trees, config=cfg, _bins=bins)


def predict_proba_matrix(model: ForestModel, X) -> np.ndarray:
    """(n, 2) array of (p_unreachable, p_reachable) vote averages."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"feature matrix must be (n, {FEATURE_DIM})")
    cuts, shift, table, freq = model._bins
    T, W = table.shape[1:]
    B = 8 * table.itemsize
    step = max(1, _CHUNK_ELEMENTS // (T * W))
    first = len(freq) // T * np.arange(T)
    halves = [1 << i for i in range(cuts.shape[1].bit_length())][::-1]
    acc = np.empty((len(X), 2))
    for s in range(0, len(X), step):
        # One branch-free binary search over the flat ``cuts`` adds to each
        # value's row start its count of cuts below it.  A NaN is searched as
        # +inf (``fmin``), above every threshold.
        x = np.fmin(X[s : s + step].T, np.inf, order="C")
        at = np.repeat(cuts.shape[1] * np.arange(FEATURE_DIM)[:, None], x.shape[1], axis=1)
        for half in halves:
            at += half * (x > np.take(cuts, at + (half - 1)))
        at += shift[:, None]  # each value's table row
        mask = np.take(table, at[0], axis=0)
        for f in range(1, FEATURE_DIM):
            mask &= np.take(table, at[f], axis=0)
        # The lowest set bit of each tree's mask is the leaf the row reaches:
        # the trailing zeros of its first word, plus those of the next while
        # every word so far is empty.
        tz = np.bitwise_count(~mask & (mask - 1))
        leaf = first + tz[:, :, 0]
        for w in range(1, W):
            leaf += tz[:, :, w] * (leaf == first + B * w)
        np.add.reduce(np.take(freq, leaf.T, axis=0), axis=0, out=acc[s : s + step])
    acc /= T
    return acc
