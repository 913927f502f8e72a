"""Random forest regression: bagged CART trees with per-node feature sampling.

Tree t draws its bootstrap sample from a stream seeded by (seed, t). Each
node it splits samples its mtry features by key, not from that stream: the
features f with the smallest splitmix64 outputs ``_mix(key ^ salt[f])``,
where ``salt[f] = _mix(f)``, in increasing order of that output. ``_mix``
is a bijection, so the outputs of one key never tie. The root key is ``_mix(_mix(seed) ^ t)``, and a child's key is
``_mix(parent key ^ side)``, 0 for the left child and 1 for the right. A
node's features therefore depend only on its path from the root, not on
the other nodes or trees grown with it.

All trees of a fit grow breadth first together, one numpy step per level:
a ``reduceat`` leaf test (fewer than 2·min_leaf records, or a single target
value), one argsort of the keyed draws, the batched split search
(:func:`_split_search`) in slices of at most SPLIT_STACK_BYTES, and one
stable partition of the split nodes' records into their children. The
partition sorts child keys below 2·(level's nodes) in the smallest unsigned
type that holds them, which numpy's stable argsort radix-sorts while it has
at most 16 bits. Node ids are breadth first within each tree. The forest
equals growing each tree alone, one node at a time from a FIFO queue, bit
for bit:

- the stable partition keeps each child's records in their parent's order,
  as masking the parent's records does;
- a stable argsort's permutation is unique, so sorting a node's padded row
  orders its records exactly as sorting them alone does, and the cumulative
  sums, midpoints and scores over that prefix are the same float operations
  (``np.cumsum`` adds in order along any axis, so the stack's layout does not
  matter);
- the search sorts integer rank codes (:func:`_rank_codes`), coded once per
  fit, not the values: a column's dense ranks keep its values' order and
  ties, so the stable argsort's permutation is the same, and the sorted
  values are read from x through it, bit for bit;
- padding is one extra record, sorting last (+inf features, the largest
  code) and adding nothing (0.0 target); every padded position fails the
  size or midpoint test, so it never wins;
- the search scores only the positions where both children can hold
  min_leaf records, min_leaf - 1 to width - min_leaf - 1 of a node padded to
  width; every other position fails the size test, so no winner changes,
  and the positions kept are scored by the same float operations;
- leaf values are settled after growth, one ``np.mean(axis=1)`` per distinct
  leaf size over a (leaves, size) block, which sums each row in the same
  pairwise order as ``np.mean`` over that leaf alone. Rows are never padded:
  numpy's pairwise sum groups by length.

Fitting is therefore bit-identical run to run, for any batch size and
whichever trees grow together. Training covariates must be finite.

Routing uses leaf bitmasks (QuickScorer: Lucchese et al., SIGIR 2015), not
a walk. :func:`_stack` compiles the trees: each tree's leaves are numbered
left to right, and a split node's mask keeps every leaf but those of its
left subtree. A row goes right at every node whose threshold lies below its
value (NaN included), and each such node rules out its left subtree; the
exit leaf is the leftmost leaf left, the lowest set bit of the AND of those
masks. It is the leaf the walk reaches: every leaf left of it lies in the
left subtree of a node where the row's path turns right, and no node whose
left subtree holds it sends the row right. On one feature, a tree's nodes
below x are the first of its nodes in threshold order, so a count table
indexed by x's rank among the forest's thresholds and one prefix-AND per
count give their mask. The lowest set bit, v & -v, is a power of two, so
its position is read from the exponent bits of its exact float64.
Comparisons are exact, so every pair reaches the leaf that the walk does.

One pass (:func:`_leaf_sums`) routes and sums for ``rf_predict``, over all
trees, for the out-of-bag error, over each record's out-of-bag trees, and
for tuning's held-out scores, over the trees of each record's own fold. It
takes rows in chunks of at most ROUTE_PAIRS pairs, and at least one row of
ntree pairs, so memory does not grow with the query count. Each chunk is
one (trees × rows) block. A running sum down the tree axis adds each row's
leaves in tree order for every block shape; a tree the row does not sum
adds +0.0, which changes no partial sum, and a final + 0.0 turns an all
-0.0 sum into the +0.0 of a per-tree loop from 0.0. The chunks run on up to
``workers`` threads, one per chunk, each writing only its own rows; chunk
bounds do not depend on ``workers``, so neither do the sums.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ParseError, UsageError
from ..grid import PointTable, read_text
from .features import _batches, _finite

_SEED_MASK = (1 << 64) - 1

# stream tag separating the fold shuffle in tune_mtry from tree streams
_TUNE_STREAM = 0x7E5

# (tree, row) pairs one routing chunk holds at most; a chunk is still at least
# one row of ntree pairs, and memory does not grow with the query count. It
# also bounds the (tree, bootstrap record) pairs of one tune_mtry fold group,
# which still holds at least one fold
ROUTE_PAIRS = 1 << 15

# bytes the padded (nodes, mtry, largest node) float stack of one batched
# split search may take; the search holds at most four arrays of that shape,
# the scores and midpoints narrower by the 2·min_leaf - 1 positions that
# cannot win, and a few of (nodes, largest node), at once. Small batches
# stay near cache size: on a 2-CPU host 64 KiB ran the rf-tune benchmark
# 3-5 % faster than 128 KiB, and tuning 720 records (p 4, 10 folds, 100
# trees) peaked at 48 MB RSS, against 52 MB at 1 MiB.
SPLIT_STACK_BYTES = 1 << 16

@dataclass(frozen=True)
class RfConfig:
    ntree: int = 500
    mtry: int | str = "tune"
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.ntree < 1:
            raise UsageError("ntree must be at least 1")
        if self.min_leaf < 1:
            raise UsageError("min_leaf must be at least 1")
        if isinstance(self.mtry, str):
            if self.mtry != "tune":
                raise UsageError(f"mtry must be a positive integer or 'tune', got {self.mtry!r}")
        elif self.mtry < 1:
            raise UsageError("mtry must be at least 1")


@dataclass(frozen=True)
class Tree:
    """Flat binary regression tree; feature < 0 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The value of the leaf each row of x reaches, added to 0.0."""
        return _leaf_sums(_stack((self,)), x, np.ones((1, len(x)), dtype=bool), 1)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def depth(self) -> int:
        """Splits on the longest root-to-leaf path (0 for a single leaf)."""
        level, depth = np.zeros(1, dtype=np.int64), 0
        while True:
            level = level[self.feature[level] >= 0]
            if not len(level):
                return depth
            level = np.concatenate([self.left[level], self.right[level]])
            depth += 1


@dataclass(frozen=True)
class Forest:
    """A fitted ensemble plus its out-of-bag error."""

    trees: tuple
    oob_rmse: float
    p: int
    config: RfConfig

    @property
    def ntree(self) -> int:
        return len(self.trees)


def _stack(trees) -> tuple:
    """Compile trees for :func:`_leaf_sums` (QuickScorer: Lucchese et al.,
    SIGIR 2015), over all their nodes at once, level by level from the roots.

    Each tree's leaves are numbered left to right, and a mask holds one bit
    per leaf in as many uint64 words as the largest tree needs. Split node
    n's mask keeps every leaf but those of its left subtree: the leaves a row
    can still exit at once it goes right at n. Only nodes reachable from the
    roots count, so breadth-first and preorder ids both work. Returns
    (cuts, base, prefix, leaf_base, leaf_value):

    - cuts: (f, U, counts) per feature f some tree splits on: U the forest's
      distinct thresholds on f, ascending, and counts[t, g] how many of tree
      t's thresholds on f lie in U[:g], uint8 while every (tree, feature)
      has fewer than 256 nodes;
    - prefix: (words, entries) masks. Entry base[t, f] + c is the AND of the
      masks of the first c of tree t's nodes on f in threshold order; entry
      0, and every entry for c = 0, keeps all leaves;
    - leaf_value: every tree's leaf values, left to right, tree t's leftmost
      at leaf_base[t].
    """
    ntree = len(trees)
    sizes = np.array([tree.n_nodes for tree in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + root for tree, root in zip(trees, roots)])
    right = np.concatenate([tree.right + root for tree, root in zip(trees, roots)])
    value = np.concatenate([tree.value for tree in trees])
    # the split nodes and leaves each level reaches, from the roots down
    splits, leaves, level = [], [], roots
    while len(level):
        at_split = feature[level] >= 0
        splits.append(level[at_split])
        leaves.append(level[~at_split])
        level = np.concatenate([left[splits[-1]], right[splits[-1]]])
    # leaf counts bottom-up, then each subtree's leftmost leaf number top-down
    count = np.ones(len(feature), dtype=np.int64)
    for split in reversed(splits):
        count[split] = count[left[split]] + count[right[split]]
    first = np.zeros(len(feature), dtype=np.int64)
    for split in splits:
        first[left[split]] = first[split]
        first[right[split]] = first[split] + count[left[split]]
    split, leaf = np.concatenate(splits), np.concatenate(leaves)
    tree = np.repeat(np.arange(ntree), sizes)
    leaf_base = np.cumsum(count[roots]) - count[roots]
    leaf_value = np.empty(int(count[roots].sum()))
    leaf_value[leaf_base[tree[leaf]] + first[leaf]] = value[leaf]
    # each split node's mask: word w clears bits [lo, hi), its left subtree's
    words = (int(count[roots].max()) + 63) // 64
    lo = first[split] - 64 * np.arange(words)[:, None]
    hi = lo + count[left[split]]
    below = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)
    masks = ~(below[np.clip(lo, 0, 64)] ^ below[np.clip(hi, 0, 64)])
    # each (tree, feature)'s nodes in threshold order, a run, and their
    # prefix-AND by a log-step scan within each run
    order = np.lexsort((threshold[split], feature[split], tree[split]))
    split, masks = split[order], masks[:, order]
    tree, feature, threshold = tree[split], feature[split], threshold[split]
    nf = int(feature.max(initial=-1)) + 1
    new = np.diff(tree * nf + feature, prepend=-1) != 0
    starts = np.flatnonzero(new)
    run_of = np.cumsum(new) - 1
    rank = np.arange(len(split)) - starts[run_of]
    deepest, step = int(rank.max(initial=0)), 1
    while step <= deepest:
        later = np.flatnonzero(rank >= step)
        masks[:, later] &= masks[:, later - step]
        step *= 2
    prefix = np.full((words, 1 + len(split) + len(starts)), ~np.uint64(0))
    prefix[:, 2 + np.arange(len(split)) + run_of] = masks
    base = np.zeros((ntree, nf), dtype=np.int64)
    base[tree[starts], feature[starts]] = 1 + starts + np.arange(len(starts))
    # a (tree, feature)'s count over U rises to rank + 1 at the last of its
    # nodes with each threshold
    last = np.ones(len(split), dtype=bool)
    last[:-1] = new[1:] | (threshold[1:] != threshold[:-1])
    dtype = np.min_scalar_type(deepest + 1)
    cuts = []
    for f in range(nf):
        on = feature == f
        if not on.any():
            continue
        cut = np.sort(threshold[on])
        cut = cut[np.diff(cut, prepend=-np.inf) != 0]
        counts = np.zeros((ntree, len(cut) + 1), dtype=dtype)
        on &= last
        counts[tree[on], np.searchsorted(cut, threshold[on]) + 1] = rank[on] + 1
        np.maximum.accumulate(counts, axis=1, out=counts)
        cuts.append((f, cut, counts))
    return cuts, base, prefix, leaf_base, leaf_value


def _leaf_sums(stacked: tuple, x: np.ndarray, member: np.ndarray, workers: int) -> np.ndarray:
    """Per row q of x, the sum of the leaves q reaches in the trees t of the
    :func:`_stack` tables where ``member[t, q]`` holds, added in tree order
    from 0.0; row chunks run on ``workers`` threads (see the module docstring)."""
    cuts, base, prefix, leaf_base, leaf_value = stacked
    ntree, nq = member.shape
    step = max(1, ROUTE_PAIRS // ntree)
    sums = np.empty(nq)

    def route_chunk(lo: int) -> None:
        chunk = x[lo : lo + step]
        # the leaves each (tree, row) pair may still exit at; on feature f a row
        # goes right at the nodes whose threshold lies below x, the first
        # counts[t, g] of tree t's nodes on f in threshold order (NaN: all)
        kept = np.full((len(prefix), ntree, len(chunk)), ~np.uint64(0))
        for f, cut, counts in cuts:
            entries = counts.take(np.searchsorted(cut, chunk[:, f]), axis=1) + base[:, f, None]
            kept &= prefix.take(entries, axis=1)
        # the exit leaf is the lowest set bit, v & -v, of the first nonzero word;
        # v & -v is a power of two, exact as a float64, whose biased exponent
        # (its bits >> 52) is the bit's position + 1023
        at = None
        for w in reversed(range(len(kept))):
            low = np.negative(kept[w])
            low &= kept[w]
            leaf = low.astype(np.float64).view(np.int64)
            leaf >>= 52
            leaf += leaf_base[:, None] + (64 * w - 1023)
            at = leaf if at is None else np.where(low != 0, leaf, at)
        values = np.where(member[:, lo : lo + step], leaf_value.take(at), 0.0)
        # a running sum adds in tree order for any chunk shape (a sum down the
        # axis goes pairwise on one row); + 0.0 makes an all -0.0 sum +0.0
        sums[lo : lo + step] = np.add.accumulate(values, axis=0, out=values)[-1] + 0.0

    starts = range(0, nq, step)
    # one chunk or thread needs no pool, whose start costs about 2 ms
    threads = min(workers, len(starts))
    if threads <= 1:
        list(map(route_chunk, starts))
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(route_chunk, starts))
    return sums


def _rank_codes(x: np.ndarray) -> np.ndarray:
    """Each x[i, f]'s dense rank among column f's distinct values, so equal
    values, -0.0 and 0.0 among them, share a code and codes keep the
    values' order. Codes are uint8 while a column holds at most 256 distinct
    values and uint16 while it holds at most 65 536, as numpy's stable
    argsort of those types is a radix sort, and int64 beyond."""
    n, p = x.shape
    order = np.argsort(x, axis=0)
    xs = np.take_along_axis(x, order, axis=0)
    new = np.ones((n, p), dtype=bool)
    new[1:] = xs[1:] != xs[:-1]
    ranks = np.cumsum(new, axis=0) - 1
    top = int(ranks[-1].max(initial=0))
    codes = np.empty((n, p), dtype=np.min_scalar_type(top) if top < 1 << 16 else np.int64)
    np.put_along_axis(codes, order, ranks, axis=0)
    return codes


def _split_search(x: np.ndarray, codes: np.ndarray, z_rep: np.ndarray, rows, sizes,
                  feats: np.ndarray, min_leaf: int):
    """Lowest-SSE (feature, threshold) of each node over its sampled features.

    Node k holds ``sizes[k]`` records of x and of the targets z, listed node
    after node in ``rows``, and samples the features ``feats[k]``; ``z_rep``
    is ``np.repeat(z, p)``, so that one flat index reads x and z. The last
    record of x, z and their :func:`_rank_codes` pads the nodes to the
    largest. Each node holds at least 2·min_leaf records, as
    :func:`_leaf_flags` makes every smaller node a leaf, so some position
    always leaves min_leaf records on both sides. Thresholds are
    midpoints between consecutive sorted values, kept only when they fall
    strictly between the two values and both children reach min_leaf. Ties
    keep the earliest sampled feature, then the lowest threshold. All nodes
    are searched in one padded stack of (node, feature) rows of the largest
    node's width, sorted by rank code. Returns the (feature, threshold)
    arrays; feature is -1 where no threshold is kept.
    """
    nodes, mtry = feats.shape
    p = x.shape[1]
    width = int(sizes.max())
    # each node's records, then the pad record, as (nodes, width)
    recs = np.full((nodes, width), len(x) - 1)
    recs[np.arange(width) < sizes[:, None]] = rows
    # each (node, feature)'s records as flat indices into x, codes and z_rep,
    # for one flat take each, as in features._gather: 2-D fancy indexing costs
    # more
    at = recs[:, None, :] * p + feats[:, :, None]
    order = np.argsort(codes.take(at), axis=-1, kind="stable")
    order += (np.arange(nodes * mtry) * width).reshape(nodes, mtry, 1)
    # sorted, and laid out (width, mtry, nodes): the running sums and every
    # later step then work on whole (mtry, nodes) planes, and per-node values
    # broadcast along contiguous rows
    at = at.take(order).transpose(2, 1, 0)
    del order
    xs = x.take(at)
    zs = z_rep.take(at)
    del at
    c1 = np.cumsum(zs, axis=0)
    zs **= 2
    c2 = np.cumsum(zs, axis=0)
    del zs
    # only positions min_leaf - 1 .. width - min_leaf - 1, a split into
    # sizes_left records and the rest, can leave min_leaf records a side
    lo, hi = min_leaf - 1, width - min_leaf
    sizes_left = np.arange(min_leaf, hi + 1, dtype=np.float64)[:, None, None]
    sizes_right = sizes - sizes_left
    # sse_left = c2 - c1² / sizes_left, over each prefix
    score = c1[lo:hi] ** 2
    score /= sizes_left
    np.subtract(c2[lo:hi], score, out=score)
    # sse_right = (c2 total - c2) - (c1 total - c1)² / sizes_right, each in place
    # in c1 and c2; positions past a smaller node's end have no right child,
    # and any divisor serves, as they are invalid
    right = c1[lo:hi]
    np.subtract(c1[-1], right, out=right)
    right **= 2
    right /= np.maximum(sizes_right, 1.0)
    sse_right = c2[lo:hi]
    np.subtract(c2[-1], sse_right, out=sse_right)
    np.subtract(sse_right, right, out=sse_right)
    del c1, right
    score += sse_right
    del c2, sse_right
    mid = xs[lo:hi] + xs[lo + 1 : hi + 1]
    mid /= 2.0
    # a child below min_leaf records, or a midpoint not strictly between the
    # two values (no value is NaN, so >= negates <)
    invalid = (sizes_right < min_leaf) | (xs[lo:hi] >= mid) | (mid >= xs[lo + 1 : hi + 1])
    # a NaN score needs the node's sum of squared targets to overflow, and then
    # no score is below inf: the node is a leaf, as with a per-feature argmin
    np.putmask(score, invalid, math.inf)
    # each node's scores feature after feature, for the first least one
    score = score.transpose(2, 1, 0).reshape(nodes, -1)
    best = np.argmin(score, axis=1)
    k = np.arange(nodes)
    found = score[k, best] < math.inf
    f, i = np.divmod(best, hi - lo)
    return np.where(found, feats[k, f], -1), np.where(found, mid[i, f, k], 0.0)


def _leaf_flags(z: np.ndarray, rows: np.ndarray, sizes: np.ndarray, min_leaf: int) -> np.ndarray:
    """Whether each node, holding ``sizes[k]`` records listed node after node
    in ``rows``, is a leaf: fewer than 2·min_leaf records, or a single target
    value."""
    small = sizes < 2 * min_leaf
    if small.all():  # no purity to test, an empty level included
        return small
    zs = z[rows]
    starts = np.cumsum(sizes) - sizes
    return small | (np.minimum.reduceat(zs, starts) == np.maximum.reduceat(zs, starts))


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output for each 64-bit state in the uint64 array z (Steele,
    Lea and Flood, OOPSLA 2014); a bijection. Array arithmetic wraps silently,
    where numpy scalars would warn, so keys stay in arrays."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _root_keys(seed: int, ntree: int) -> np.ndarray:
    """Each tree t's root key, _mix(_mix(seed) ^ t)."""
    mixed = _mix(np.array([seed & _SEED_MASK], dtype=np.uint64))
    return _mix(mixed ^ np.arange(ntree, dtype=np.uint64))


def _keyed_features(keys: np.ndarray, p: int, mtry: int) -> np.ndarray:
    """(len(keys), mtry) features: for each key, the mtry features f with the
    smallest _mix(key ^ _mix(f)), in increasing order of it."""
    salts = _mix(np.arange(p, dtype=np.uint64))
    return np.argsort(_mix(keys[:, None] ^ salts), axis=1)[:, :mtry]


def _grow_trees(x: np.ndarray, z: np.ndarray, boots, keys: np.ndarray, mtry: int, min_leaf: int):
    """Grow tree t on the records ``boots[t]`` from the root key ``keys[t]``,
    all trees breadth first together (see the module docstring)."""
    ntree, p = len(boots), x.shape[1]
    # one pad record, last: +inf features sort after every value, and its 0.0
    # target adds nothing
    x = np.vstack([x, np.full(p, np.inf)])
    z = np.append(z, 0.0)
    z_rep = np.repeat(z, p)
    codes = _rank_codes(x)
    # the level's nodes, tree after tree and in id order within a tree: each
    # node's tree, key and record count, and its records, node after node
    tree, key = np.arange(ntree), keys
    sizes = np.array([len(boot) for boot in boots], dtype=np.int64)
    rows = np.concatenate(boots)
    next_id = np.ones(ntree, dtype=np.int64)
    # per level: (tree, feature, threshold, left, right) of its nodes, and
    # (positions among all nodes grown, target values, sizes) of its leaves
    levels, leaves, grown = [], [], 0
    while len(tree):
        node = np.repeat(np.arange(len(tree)), sizes)
        feature = np.full(len(tree), -1, dtype=np.int64)
        threshold = np.zeros(len(tree))
        search = ~_leaf_flags(z, rows, sizes, min_leaf)
        if search.any():
            search_rows, search_sizes = rows[search[node]], sizes[search]
            feats = _keyed_features(key[search], p, mtry)
            bounds = np.concatenate([[0], np.cumsum(search_sizes)])
            splits = [
                _split_search(
                    x, codes, z_rep, search_rows[bounds[part.start] : bounds[part.stop]],
                    search_sizes[part], feats[part], min_leaf,
                )
                for part in _batches(search_sizes.tolist(), 8 * mtry, SPLIT_STACK_BYTES)
            ]
            feature[search] = np.concatenate([f for f, _ in splits])
            threshold[search] = np.concatenate([t for _, t in splits])
        split = feature >= 0
        leaves.append((grown + np.flatnonzero(~split), z[rows[~split[node]]], sizes[~split]))
        # one stable partition sends each split node's records to its left
        # child, then its right, keeping their order; keys below 2·len(tree)
        # fit a type of at most 16 bits for a level of up to 32 767 nodes,
        # which numpy's stable argsort radix-sorts
        on = split[node]
        rows, node = rows[on], node[on]
        left_child = (2 * (np.cumsum(split) - 1)).astype(np.min_scalar_type(2 * len(tree)))
        child = left_child[node] + ~(x.take(rows * p + feature[node]) <= threshold[node])
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * np.count_nonzero(split))
        children = np.repeat(tree[split], 2)
        # a left child's key hashes its parent's with side 0, a right child's with 1
        key = _mix(np.stack([key[split], key[split] ^ np.uint64(1)], axis=1).ravel())
        # breadth-first ids: a tree's children of this level follow its earlier nodes
        counts = np.bincount(children, minlength=ntree)
        ids = next_id[children] + np.arange(len(children)) - (np.cumsum(counts) - counts)[children]
        next_id += counts
        left = np.full(len(tree), -1, dtype=np.int64)
        right = left.copy()
        left[split], right[split] = ids[0::2], ids[1::2]
        levels.append((tree, feature, threshold, left, right))
        grown += len(tree)
        tree = children
    tree, feature, threshold, left, right = (np.concatenate(a) for a in zip(*levels))
    at, leaf_z, leaf_sizes = (np.concatenate(a) for a in zip(*leaves))
    value = np.zeros(grown)
    starts = np.cumsum(leaf_sizes) - leaf_sizes
    # np.mean over the rows of a (leaves, size) block sums each row as np.mean
    # over that row alone does, so one call per distinct size settles them all;
    # a set, as np.unique imports numpy.ma (0.5 MB of rf-tune's peak RSS)
    for size in set(leaf_sizes.tolist()):
        same = np.flatnonzero(leaf_sizes == size)
        value[at[same]] = np.mean(leaf_z[starts[same, None] + np.arange(size)], axis=1)
    # levels in order, so a stable sort by tree lists each tree's nodes by id
    order = np.argsort(tree, kind="stable")
    cuts = np.cumsum(np.bincount(tree, minlength=ntree))[:-1]
    parts = (np.split(a[order], cuts) for a in (feature, threshold, left, right, value))
    return [Tree(*arrays) for arrays in zip(*parts)]


def _bootstraps(cfg: RfConfig, n: int) -> tuple:
    """Each of the cfg.ntree trees' bootstrap: the n record indices in [0, n)
    drawn first from tree t's stream, seeded by (seed, t)."""
    return tuple(
        np.random.default_rng([cfg.seed & _SEED_MASK, t]).integers(0, n, size=n)
        for t in range(cfg.ntree)
    )


def rf_fit(train: PointTable, cfg: RfConfig, workers: int = 1) -> Forest:
    """Grow cfg.ntree trees on bootstrap samples of the training covariates.

    mtry must be a fixed integer here; resolve "tune" through tune_mtry
    first. All trees grow breadth first together on the calling thread;
    out-of-bag routing runs on ``workers`` threads, and no result depends on
    their count.
    """
    z = train.require_targets()
    n, p = len(train), train.p
    if workers < 1:
        raise UsageError(f"workers = {workers} must be at least 1")
    if p == 0:
        raise UsageError("random forest needs at least one covariate column")
    if isinstance(cfg.mtry, str):
        raise UsageError("mtry is 'tune'; resolve it with tune_mtry before fitting")
    if cfg.mtry > p:
        raise UsageError(f"mtry = {cfg.mtry} exceeds covariate count {p}")
    x = _finite(train.covariates, "random forest", "training covariate")

    boots = _bootstraps(cfg, n)
    keys = _root_keys(cfg.seed, cfg.ntree)
    trees = tuple(_grow_trees(x, z, boots, keys, cfg.mtry, cfg.min_leaf))
    # tree t's out-of-bag records are those its bootstrap never drew
    oob = np.stack([np.bincount(boot, minlength=n) == 0 for boot in boots])
    oob_sum = _leaf_sums(_stack(trees), x, oob, workers)
    oob_count = oob.sum(axis=0)
    covered = oob_count > 0
    if covered.any():
        residual = oob_sum[covered] / oob_count[covered] - z[covered]
        oob_rmse = float(np.sqrt(np.mean(residual * residual)))
    else:
        oob_rmse = float("nan")
    return Forest(trees, oob_rmse, p, cfg)


def rf_predict(forest: Forest, queries: PointTable, workers: int = 1) -> np.ndarray:
    """Mean over all trees of the leaf each query routes to, on ``workers`` threads."""
    if workers < 1:
        raise UsageError(f"workers = {workers} must be at least 1")
    if queries.p != forest.p:
        raise UsageError(f"query covariate width {queries.p} does not match fitted {forest.p}")
    member = np.broadcast_to(True, (forest.ntree, len(queries)))
    return _leaf_sums(_stack(forest.trees), queries.covariates, member, workers) / forest.ntree


def default_mtry_grid(p: int) -> list[int]:
    """Candidate mtry values 2 .. p-1 (one less than the covariate count)."""
    if p <= 2:
        return [max(1, p - 1)]
    return list(range(2, p))


def tune_mtry(
    train: PointTable,
    cfg: RfConfig,
    candidates: list[int] | None = None,
    folds: int = 10,
    stats: dict | None = None,
) -> int:
    """Pick the candidate mtry with the lowest mean k-fold RMSE.

    Records are shuffled once by a seeded stream and split into near-equal
    folds; every candidate sees the same folds. Ties go to the smaller mtry.
    Consecutive folds form groups of at most ROUTE_PAIRS (tree, bootstrap
    record) pairs, or one fold alone. A group draws each fold's bootstraps
    once; each candidate then grows the group's folds × ntree trees in one
    lockstep and scores them in one :func:`_leaf_sums` pass over the held-out
    records, each routed through its own fold's trees only. Every tree and
    sum equals those of ``rf_fit`` on the fold's training records and
    ``rf_predict`` on its held-out records, bit for bit (see the module
    docstring), and no out-of-bag error is computed. All of it runs on the
    calling thread. A ``stats`` mapping, if given, records each candidate's
    mean fold RMSE as ``mtry_cv_rmse``, its RMSE of each fold as
    ``mtry_fold_rmse``, and the number of folds in each group as
    ``mtry_tune_groups``.
    """
    z = train.require_targets()
    n, p = len(train), train.p
    if candidates is None:
        candidates = default_mtry_grid(p)
    if not candidates:
        raise UsageError("tune_mtry needs at least one candidate")
    candidates = sorted(set(int(c) for c in candidates))
    if candidates[0] < 1 or candidates[-1] > p:
        raise UsageError(f"mtry candidates must lie in [1, {p}]")
    if folds < 2:
        raise UsageError("tune_mtry needs at least 2 folds")
    if n < folds:
        raise UsageError(f"{n} records cannot fill {folds} folds")

    rng = np.random.default_rng([cfg.seed & _SEED_MASK, _TUNE_STREAM])
    tests = np.array_split(rng.permutation(n), folds)
    fold_of = np.empty(n, dtype=np.int64)
    for f, test_idx in enumerate(tests):
        fold_of[test_idx] = f
    x = _finite(train.covariates, "random forest", "training covariate")
    keys = _root_keys(cfg.seed, cfg.ntree)
    fold_rmse = np.empty((len(candidates), folds))
    groups = list(_batches([n - len(t) for t in tests], cfg.ntree, ROUTE_PAIRS))
    for group in groups:
        size = group.stop - group.start
        boots = []
        for f in range(group.start, group.stop):
            # fold f's training records are the rows outside it, in table
            # order, as train.subset lists them. Mapped in place: new arrays
            # between the draws fragment the heap, which at 720 records
            # (10 folds, 100 trees) raised tuning's peak RSS by 0.8 MB
            rows = np.flatnonzero(fold_of != f)
            boots += [np.take(rows, boot, out=boot) for boot in _bootstraps(cfg, len(rows))]
        held = np.concatenate(tests[group])
        cuts = np.cumsum([len(t) for t in tests[group]])[:-1]
        # tree t belongs to the group's fold t // ntree, and a held-out record
        # sums only its own fold's trees
        member = np.arange(size * cfg.ntree)[:, None] // cfg.ntree == fold_of[held] - group.start
        for ci, cand in enumerate(candidates):
            trees = _grow_trees(x, z, boots, np.tile(keys, size), cand, cfg.min_leaf)
            err = _leaf_sums(_stack(trees), x[held], member, 1) / cfg.ntree - z[held]
            # the next candidate grows in the memory these trees held; keeping
            # them raised the same tuning's peak RSS by 2.5 MB
            del trees
            fold_rmse[ci, group] = [np.sqrt(np.mean(sq)) for sq in np.split(err * err, cuts)]
    mean_rmse = [np.mean(row) for row in fold_rmse]
    if stats is not None:
        stats["mtry_cv_rmse"] = {c: float(m) for c, m in zip(candidates, mean_rmse)}
        stats["mtry_fold_rmse"] = {c: row.tolist() for c, row in zip(candidates, fold_rmse)}
        stats["mtry_tune_groups"] = [group.stop - group.start for group in groups]
    return candidates[int(np.argmin(mean_rmse))]


def serialize_forest(forest: Forest) -> str:
    """Flat text serialization: a forest header, then one line per node."""
    cfg = forest.config
    lines = [
        "forest "
        f"ntree={forest.ntree} p={forest.p} min_leaf={cfg.min_leaf} "
        f"seed={cfg.seed} mtry={cfg.mtry} oob_rmse={forest.oob_rmse!r}"
    ]
    for t, tree in enumerate(forest.trees):
        lines.append(f"tree {t} nodes={tree.n_nodes}")
        # Python ints and floats from tolist(), not a numpy scalar per field
        fields = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        for i, (feature, threshold, left, right, value) in enumerate(
            zip(*(a.tolist() for a in fields))
        ):
            if feature < 0:
                lines.append(f"{i} leaf {value!r}")
            else:
                lines.append(f"{i} split {feature} {threshold!r} {left} {right}")
    return "\n".join(lines) + "\n"


def write_forest(forest: Forest, path) -> None:
    Path(path).write_text(serialize_forest(forest))


def _parse_finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} {text} is not finite")
    return value


def read_forest(path) -> Forest:
    """Read a forest written by :func:`write_forest`; it predicts as the
    forest written does. A malformed file, a non-finite split threshold or
    leaf value included, raises :class:`ParseError` naming the line."""
    path = Path(path)
    lines = read_text(path, "forest file").splitlines()
    if not lines or not lines[0].startswith("forest "):
        raise ParseError("missing forest header", path=path, line=1)
    header = {}
    for token in lines[0].split()[1:]:
        key, _, val = token.partition("=")
        header[key] = val
    try:
        ntree = int(header["ntree"])
        p = int(header["p"])
        mtry = int(header["mtry"])
        if mtry > p:
            raise ValueError(f"mtry = {mtry} exceeds covariate count {p}")
        cfg = RfConfig(
            ntree=ntree, mtry=mtry, min_leaf=int(header["min_leaf"]), seed=int(header["seed"])
        )
        oob_rmse = float(header["oob_rmse"])
    except (KeyError, ValueError, UsageError) as exc:
        raise ParseError(f"bad forest header: {exc}", path=path, line=1) from exc

    trees = []
    i = 1
    for t in range(ntree):
        if i >= len(lines) or not lines[i].startswith(f"tree {t} "):
            raise ParseError(f"expected 'tree {t}' header", path=path, line=i + 1)
        count = lines[i].partition("nodes=")[2].strip()
        if not count.isdecimal() or int(count) < 1:
            raise ParseError(f"tree {t} needs a positive node count", path=path, line=i + 1)
        n_nodes = int(count)
        feature = np.empty(n_nodes, dtype=np.int64)
        threshold = np.zeros(n_nodes)
        left = np.full(n_nodes, -1, dtype=np.int64)
        right = np.full(n_nodes, -1, dtype=np.int64)
        value = np.zeros(n_nodes)
        linked = set()
        for node in range(n_nodes):
            i += 1
            try:
                parts = lines[i].split()
                if int(parts[0]) != node:
                    raise ValueError(f"node id {parts[0]} out of order")
                if parts[1] == "leaf":
                    feature[node] = -1
                    value[node] = _parse_finite(parts[2], "leaf value")
                elif parts[1] == "split":
                    feat, lo, hi = int(parts[2]), int(parts[4]), int(parts[5])
                    if not 0 <= feat < p:
                        raise ValueError(f"feature {feat} outside [0, {p})")
                    # a child's id follows its parent's (breadth first, or preorder in
                    # older files), so routing cannot cycle
                    if not (node < lo < n_nodes and node < hi < n_nodes):
                        raise ValueError(f"children {lo}, {hi} outside ({node}, {n_nodes})")
                    # and no node has two parents, so the leaves have one order
                    if lo == hi or {lo, hi} & linked:
                        raise ValueError(f"children {lo}, {hi}: a node with two parents")
                    linked |= {lo, hi}
                    feature[node], threshold[node] = feat, _parse_finite(parts[3], "threshold")
                    left[node], right[node] = lo, hi
                else:
                    raise ValueError(f"unknown node kind {parts[1]!r}")
            except (IndexError, ValueError) as exc:
                raise ParseError(f"bad node line: {exc}", path=path, line=i + 1) from exc
        trees.append(Tree(feature, threshold, left, right, value))
        i += 1
    if i < len(lines):
        raise ParseError(f"line after the last of {ntree} trees", path=path, line=i + 1)
    return Forest(tuple(trees), oob_rmse, p, cfg)
