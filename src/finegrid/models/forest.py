"""Random forest regression: bagged CART trees with per-node feature sampling.

Each tree draws its bootstrap sample, then the mtry features of each node
it split-searches, from an independent stream seeded by (seed, tree index).
The trees of a fit grow in lockstep: every tree walks its own explicit
preorder stack, recording leaves as it pops them, until it pops a node that
needs a split search (at least 2·min_leaf records and more than one target
value). One vectorised replay (:func:`_draw_features`) then draws the
features of every tree's pending node, and one batched search
(:func:`_split_search`) finds the best split of each at once. The leaf test
of both children of every split in a step is one batched pass too.

The replay draws what ``Generator.choice(p, size=mtry, replace=False)``
draws: Floyd's algorithm over j = p − mtry … p − 1, where a pick already
taken becomes j, then a Fisher–Yates shuffle over i = mtry − 1 … 1. Each
step is one Lemire draw in [0, bound] from a 32-bit value u: with
m = u·(bound + 1), the draw is m >> 32, unless m mod 2³² < 2³² mod
(bound + 1), when the next value is drawn instead; bound 0 takes no value.
The values come from each tree's tape (:class:`_Tapes`): the half of a
64-bit output its bit generator holds back after the bootstrap, if any, then
the low and the high half of each next output. Tapes are read from the
stream in blocks of TAPE_BLOCK outputs, so a tree's stream ends advanced
past its last draw, to the end of its last block; nothing draws from it
after growth. (numpy's ``choice`` takes another path when p > 10 000 and
mtry > p // 50; the replay does not.) The forest equals the one that
growing each tree alone by recursion, with one ``choice`` call per
split-searched node, gives, bit for bit, for five reasons:

- each tree's draws come from its own tape, in its own order, so
  interleaving the trees, replaying the draws of many trees in one pass, or
  grouping the trees on worker threads changes no tree's draws;
- each tree pops its nodes in preorder (right child pushed before left),
  and only split-searching nodes draw, so each draw lands on the same node
  and node ids are the same preorder ids;
- a stable argsort's permutation is unique, so sorting a node's padded row
  orders its records exactly as sorting them alone does, and the cumulative
  sums, midpoints and scores over that prefix are the same float operations;
- padding sorts last (+inf features) and adds nothing (0.0 targets); every
  padded position fails the size or midpoint test, so it never wins;
- leaf values are settled after growth, one ``np.mean(axis=1)`` per distinct
  leaf size over a (leaves, size) block, which sums each row in the same
  pairwise order as ``np.mean`` over that leaf alone. Rows are never padded:
  numpy's pairwise sum groups by length.

Fitting is therefore bit-identical run to run, for any batch size and any
number of worker threads.

Routing (:func:`_route`) walks every (tree, row) pair at once over the
trees' node arrays laid end to end, reading covariates feature-major.
Comparisons are exact, so every pair reaches the leaf that routing it alone
does. One pass (:func:`_leaf_sums`) routes and sums for both ``rf_predict``,
over all trees, and the out-of-bag error, over each record's out-of-bag
trees. It takes rows in chunks of at most ROUTE_PAIRS pairs, and at least one
row of ntree pairs, so memory does not grow with the query count. bincount
adds each row's leaves in tree order from 0.0: the same float additions as a
per-tree loop.

mtry tuning (:func:`tune_mtry`) grows a candidate's fold forests without
``rf_fit``, in groups of consecutive folds whose bootstrap rows (ntree ×
training records each) stay within TUNE_LOCKSTEP_ROWS; each group is one
lockstep. Fold f's tree t draws its stream and bootstrap as ``rf_fit`` does
on that fold's training records (one helper serves both), and the bootstrap
is mapped to full-table rows, so the grower reads the same values in the same
positions and grows the same tree, bit for bit. A group's bootstraps and
tapes are drawn once and serve every candidate, as the stream that follows
tree (f, t)'s bootstrap does not depend on mtry. Each group's held-out records
are scored in one :func:`_leaf_sums` pass whose member mask lets tree (f, t)
count only for fold f's records, so each record's leaves are added in tree
order from 0.0, as ``rf_predict`` adds them over its fold's forest. Tuning
computes no out-of-bag error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ParseError, UsageError
from ..grid import PointTable

_SEED_MASK = (1 << 64) - 1

# stream tag separating the fold shuffle in tune_mtry from tree streams
_TUNE_STREAM = 0x7E5

# (tree, row) pairs one routing chunk walks at most; a chunk is still at least
# one row of ntree pairs, and memory does not grow with the query count
ROUTE_PAIRS = 1 << 15

# bytes the padded (nodes, mtry, largest node) float stack of one batched
# split search may take; the search holds at most four arrays of that shape,
# and a few of (nodes, largest node), at once. Small batches stay near cache
# size: on a 2-CPU host 64 KiB ran the rf-tune benchmark 3-5 % faster than
# 128 KiB, and tuning 720 records (p 4, 10 folds, 100 trees) peaked at 48 MB
# RSS, against 52 MB at 1 MiB.
SPLIT_STACK_BYTES = 1 << 16

# bootstrap rows (ntree × training records per fold) that one tune_mtry
# lockstep grows at most; a fold over it alone grows on its own. Every tree
# in a lockstep keeps its node records until growth ends, so the bound caps
# that memory: tuning 720 records over 10 folds of 100 trees peaked at 129 MB
# RSS unbounded, against 48 MB with each fold alone.
TUNE_LOCKSTEP_ROWS = 8192

# 64-bit outputs a tree's tape (see _Tapes) takes from its stream at a time
TAPE_BLOCK = 128


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
        return _route(_stack((self,)), x, np.zeros(len(x), dtype=np.int64), np.arange(len(x)))

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
    """A fitted ensemble plus its bootstrap membership and out-of-bag error."""

    trees: tuple
    in_bag: tuple
    oob_rmse: float
    p: int
    config: RfConfig

    @property
    def ntree(self) -> int:
        return len(self.trees)


def _stack(trees) -> tuple:
    """(roots, feature, threshold, children, value): the trees' nodes end to
    end, each tree's root id, and node i's right and left child ids, offset
    into the joint arrays, at children[2i] and children[2i + 1]."""
    sizes = np.array([tree.n_nodes for tree in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    children = [np.stack([t.right, t.left], axis=1) + root for t, root in zip(trees, roots)]
    return (
        roots,
        np.concatenate([tree.feature for tree in trees]),
        np.concatenate([tree.threshold for tree in trees]),
        np.concatenate(children).ravel(),
        np.concatenate([tree.value for tree in trees]),
    )


def _route(stacked: tuple, x: np.ndarray, trees: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Value of the leaf that row ``rows[k]`` of x reaches in tree ``trees[k]``
    of the :func:`_stack` arrays, for every pair k."""
    roots, feature, threshold, children, value = stacked
    # feature-major, so row q's feature f sits at f * len(x) + q
    xt = x.T.ravel()
    nodes = roots[trees]
    active = np.flatnonzero(feature[nodes] >= 0)
    while len(active):
        ids = nodes[active]
        go_left = xt[feature[ids] * len(x) + rows[active]] <= threshold[ids]
        nodes[active] = children[2 * ids + go_left]
        active = active[feature[nodes[active]] >= 0]
    return value[nodes]


def _leaf_sums(stacked: tuple, x: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Per row q of x, the sum of the leaves q reaches in the trees t of the
    :func:`_stack` arrays where ``member[t, q]`` holds, added in tree order
    from 0.0 (see the module docstring)."""
    ntree, nq = member.shape
    step = max(1, ROUTE_PAIRS // ntree)
    sums = np.empty(nq)
    for lo in range(0, nq, step):
        chunk = x[lo : lo + step]
        # tree-major pairs, so bincount adds each row's leaves in tree order
        trees, rows = np.nonzero(member[:, lo : lo + step])
        leaves = _route(stacked, chunk, trees, rows)
        sums[lo : lo + step] = np.bincount(rows, weights=leaves, minlength=len(chunk))
    return sums


def _split_search(x: np.ndarray, z: np.ndarray, rows: list, feats: np.ndarray, min_leaf: int):
    """Lowest-SSE (feature, threshold) of each node over its sampled features, or None.

    Node k holds the records ``rows[k]`` of x and z and samples the features
    ``feats[k]``. Thresholds are midpoints between consecutive sorted values,
    kept only when they fall strictly between the two values and both
    children reach min_leaf. Ties keep the earliest sampled feature, then the
    lowest threshold. All nodes are searched in one padded
    (nodes, mtry, largest node) stack.
    """
    nodes, mtry = feats.shape
    sizes = np.array([len(r) for r in rows])
    width = int(sizes.max())
    flat = np.concatenate(rows)
    node = np.repeat(np.arange(nodes), sizes)
    pos = np.arange(len(flat)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    xs = np.full((nodes, mtry, width), np.inf)
    xs[node, :, pos] = x[flat[:, None], feats[node]]
    zs = np.zeros((nodes, 1, width))
    zs[node, 0, pos] = z[flat]
    del flat, node, pos
    order = np.argsort(xs, axis=-1, kind="stable")
    xs = np.take_along_axis(xs, order, axis=-1)
    zs = np.take_along_axis(zs, order, axis=-1)
    del order
    c1 = np.cumsum(zs, axis=-1)
    zs **= 2
    c2 = np.cumsum(zs, axis=-1)
    del zs
    sizes_left = np.arange(1, width)
    sizes_right = sizes[:, None, None] - sizes_left
    # sse_left = c2 - c1² / sizes_left, over each prefix
    score = c1[..., :-1] ** 2
    score /= sizes_left
    np.subtract(c2[..., :-1], score, out=score)
    # sse_right = (c2 total - c2) - (c1 total - c1)² / sizes_right, each in place
    # in c1 and c2; padded positions have no right child, and any divisor
    # serves, as they fail `valid`
    right = c1[..., :-1]
    np.subtract(c1[..., -1:], right, out=right)
    right **= 2
    right /= np.maximum(sizes_right, 1)
    sse_right = c2[..., :-1]
    np.subtract(c2[..., -1:], sse_right, out=sse_right)
    np.subtract(sse_right, right, out=sse_right)
    del c1, right
    score += sse_right
    del c2, sse_right
    mid = xs[..., :-1] + xs[..., 1:]
    mid /= 2.0
    valid = (
        (sizes_left >= min_leaf)
        & (sizes_right >= min_leaf)
        & (xs[..., :-1] < mid)
        & (mid < xs[..., 1:])
    )
    # a NaN score needs the node's sum of squared targets to overflow, and then
    # no score is below inf: the node is a leaf, as with a per-feature argmin
    score[~valid] = math.inf
    score = score.reshape(nodes, -1)
    best = np.argmin(score, axis=1)
    found = score[np.arange(nodes), best] < math.inf
    f, i = np.divmod(best, width - 1)
    return [
        (int(feats[k, f[k]]), float(mid[k, f[k], i[k]])) if found[k] else None
        for k in range(nodes)
    ]


def _batches(sizes: list, unit: int, budget: int):
    """Cut consecutive items into slices whose count × largest size × unit
    fits budget; an item too large for the budget forms a slice of its own."""
    start, width = 0, 0
    for k, size in enumerate(sizes):
        width = max(width, size)
        if k > start and (k + 1 - start) * width * unit > budget:
            yield slice(start, k)
            start, width = k, size
    yield slice(start, len(sizes))


def _leaf_flags(z: np.ndarray, rows: list, min_leaf: int) -> np.ndarray:
    """Whether each node, holding the records ``rows[k]``, is a leaf: fewer
    than 2·min_leaf records, or a single target value."""
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    small = sizes < 2 * min_leaf
    if small.all():  # no purity to test, an empty list included
        return small
    zs = z[np.concatenate(rows)]
    starts = np.cumsum(sizes) - sizes
    return small | (np.minimum.reduceat(zs, starts) == np.maximum.reduceat(zs, starts))


class _Tapes:
    """Each tree's stream as the 32-bit values its draws take, one row per tree.

    A 32-bit draw takes the half of a 64-bit output that the bit generator
    holds back, if it holds one, then the low half, then the high half, of
    each next output. Row t starts with tree t's held-back value, first read
    at ``start[t]`` = 0 (or skipped, ``start[t]`` = 1, when none is held), and
    goes on with the halves of its stream's ``random_raw`` blocks of
    TAPE_BLOCK outputs. Values are held as uint64, ready to multiply. A tape
    is read, never consumed: every growth starts its own cursors at ``start``.
    """

    def __init__(self, rngs: list):
        self.rngs = rngs
        states = [rng.bit_generator.state for rng in rngs]
        self.start = np.array([1 - s["has_uint32"] for s in states], dtype=np.int64)
        self.values = np.array([s["uinteger"] for s in states], dtype=np.uint64)[:, None]

    def take(self, trees: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Value ``at[k]`` of row ``trees[k]``, for every k; a row read past its
        end first gets one more block appended to every row."""
        while True:
            try:
                return self.values[trees, at]
            except IndexError:
                raw = np.array(
                    [rng.bit_generator.random_raw(TAPE_BLOCK) for rng in self.rngs],
                    dtype=np.uint64,
                ).reshape(len(self.rngs), TAPE_BLOCK, 1)
                halves = np.concatenate([raw & 0xFFFFFFFF, raw >> 32], axis=2)
                self.values = np.hstack([self.values, halves.reshape(len(self.rngs), -1)])


def _bounded(tapes: _Tapes, trees: np.ndarray, at: np.ndarray, bound: int) -> np.ndarray:
    """One draw in [0, bound] per tree, read at ``at`` (which moves past
    every value taken), by Lemire's rule as numpy's 32-bit bounded draw
    applies it: value u gives m = u·(bound + 1) and the draw m >> 32, unless
    m mod 2³² < 2³² mod (bound + 1); then the tree draws again."""
    span = np.uint64(bound + 1)
    threshold = (1 << 32) % (bound + 1)
    out = np.empty(len(trees), dtype=np.int64)
    todo = slice(None)
    while True:
        m = tapes.take(trees[todo], at[todo]) * span
        at[todo] += 1
        out[todo] = m >> 32
        redraw = (m & 0xFFFFFFFF) < threshold
        if not redraw.any():
            return out
        todo = np.arange(len(trees))[todo][redraw]


def _draw_features(tapes: _Tapes, cursor: np.ndarray, trees: np.ndarray, p: int, mtry: int):
    """(len(trees), mtry) features: row k holds what
    ``Generator.choice(p, size=mtry, replace=False)`` draws on tree
    ``trees[k]``'s stream from its cursor on, and the cursors move past the
    values taken. That is numpy's Floyd's algorithm, then a Fisher–Yates
    shuffle of the picks; the trees must be distinct."""
    at = cursor[trees]
    picks = np.zeros((len(trees), mtry), dtype=np.int64)
    for k, j in enumerate(range(p - mtry, p)):
        if j == 0:  # a draw in [0, 0] takes no value
            continue
        pick = _bounded(tapes, trees, at, j)
        if k:  # a pick already taken is replaced by j, which no earlier pick can be
            pick[(picks[:, :k] == pick[:, None]).any(axis=1)] = j
        picks[:, k] = pick
    rows = np.arange(len(trees))
    for i in range(mtry - 1, 0, -1):
        j = _bounded(tapes, trees, at, i)
        swapped = picks[rows, j]
        picks[rows, j] = picks[:, i]
        picks[:, i] = swapped
    cursor[trees] = at
    return picks


def _grow_trees(x: np.ndarray, z: np.ndarray, boots: list, tapes: _Tapes, mtry: int, min_leaf: int):
    """Grow one tree per bootstrap sample, all in lockstep (see the module docstring)."""
    p = x.shape[1]
    cursor = tapes.start.copy()
    # per tree, one [feature, threshold, left, right, value] record per node
    built = [[] for _ in boots]
    # (node record, records) of every leaf; values are settled after growth
    leaves = []
    # stack entries: (records, is a leaf, parent's node record or None,
    # 2 for a left child, 3 for a right)
    stacks = [[(boot, leaf, None, 0)] for boot, leaf in zip(boots, _leaf_flags(z, boots, min_leaf))]
    while True:
        pending, trees = [], []
        for t, (tree, stack) in enumerate(zip(built, stacks)):
            while stack:
                rows, leaf, parent, side = stack.pop()
                node = [-1, 0.0, -1, -1, 0.0]
                if parent is not None:
                    parent[side] = len(tree)
                tree.append(node)
                if leaf:
                    leaves.append((node, rows))
                    continue
                pending.append((stack, node, rows))
                trees.append(t)
                break
        if not pending:
            break
        feats = _draw_features(tapes, cursor, np.array(trees), p, mtry)
        splits = []
        for part in _batches([len(rows) for *_, rows in pending], 8 * mtry, SPLIT_STACK_BYTES):
            splits += _split_search(
                x, z, [rows for *_, rows in pending[part]], feats[part], min_leaf
            )
        children = []
        for (stack, node, rows), split in zip(pending, splits):
            if split is None:
                leaves.append((node, rows))
                continue
            node[:2] = split
            go_left = x[rows, split[0]] <= split[1]
            children.append((stack, node, rows[go_left], rows[~go_left]))
        flags = _leaf_flags(z, [r for *_, lo, hi in children for r in (lo, hi)], min_leaf)
        for (stack, node, lo, hi), lo_leaf, hi_leaf in zip(children, flags[::2], flags[1::2]):
            # right first, so the left subtree is popped, and numbered, first
            stack.append((hi, hi_leaf, node, 3))
            stack.append((lo, lo_leaf, node, 2))
    # np.mean over the rows of a (leaves, size) block sums each row as np.mean
    # over that row alone does, so one call per distinct size settles them all
    by_size = {}
    for node, rows in leaves:
        by_size.setdefault(len(rows), []).append((node, rows))
    for group in by_size.values():
        means = np.mean(z[np.stack([rows for _, rows in group])], axis=1)
        for (node, _), mean in zip(group, means.tolist()):
            node[4] = mean
    return [
        Tree(
            np.array(feature, dtype=np.int64),
            np.array(threshold),
            np.array(left, dtype=np.int64),
            np.array(right, dtype=np.int64),
            np.array(value),
        )
        for feature, threshold, left, right, value in (zip(*tree) for tree in built)
    ]


def _tree_draws(cfg: RfConfig, n: int) -> tuple:
    """(streams, bootstraps): tree t's stream, seeded by (seed, t), and the n
    record indices in [0, n) it draws first, for each of the cfg.ntree trees."""
    rngs = [np.random.default_rng([cfg.seed & _SEED_MASK, t]) for t in range(cfg.ntree)]
    return rngs, tuple(rng.integers(0, n, size=n) for rng in rngs)


def rf_fit(train: PointTable, cfg: RfConfig, workers: int = 1) -> Forest:
    """Grow cfg.ntree trees on bootstrap samples of the training covariates.

    mtry must be a fixed integer here; resolve "tune" through tune_mtry
    first. With workers > 1 the trees are split into that many contiguous
    groups, each grown in lockstep on its own thread; the result is
    identical for any worker count.
    """
    z = train.require_targets()
    n, p = len(train), train.p
    if p == 0:
        raise UsageError("random forest needs at least one covariate column")
    if isinstance(cfg.mtry, str):
        raise UsageError("mtry is 'tune'; resolve it with tune_mtry before fitting")
    if cfg.mtry > p:
        raise UsageError(f"mtry = {cfg.mtry} exceeds covariate count {p}")
    x = train.covariates

    rngs, in_bag = _tree_draws(cfg, n)

    def grow(group: slice) -> list:
        return _grow_trees(x, z, in_bag[group], _Tapes(rngs[group]), cfg.mtry, cfg.min_leaf)

    bounds = np.linspace(0, cfg.ntree, min(max(workers, 1), cfg.ntree) + 1).astype(int)
    groups = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    if len(groups) > 1:
        with ThreadPoolExecutor(max_workers=len(groups)) as pool:
            trees = tuple(tree for grown in pool.map(grow, groups) for tree in grown)
    else:
        trees = tuple(grow(groups[0]))

    # tree t's out-of-bag records are those its bootstrap never drew
    oob = np.stack([np.bincount(boot, minlength=n) == 0 for boot in in_bag])
    oob_sum = _leaf_sums(_stack(trees), x, oob)
    oob_count = oob.sum(axis=0)
    covered = oob_count > 0
    if covered.any():
        residual = oob_sum[covered] / oob_count[covered] - z[covered]
        oob_rmse = float(np.sqrt(np.mean(residual * residual)))
    else:
        oob_rmse = float("nan")
    return Forest(trees, in_bag, oob_rmse, p, cfg)


def rf_predict(forest: Forest, queries: PointTable) -> np.ndarray:
    """Mean over all trees of the leaf each query routes to."""
    if queries.p != forest.p:
        raise UsageError(f"query covariate width {queries.p} does not match fitted {forest.p}")
    x, ntree = queries.covariates, forest.ntree
    return _leaf_sums(_stack(forest.trees), x, np.broadcast_to(True, (ntree, len(x)))) / ntree


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

    Each fold's forest is the one ``rf_fit`` grows on that fold's training
    records, bit for bit (see the module docstring): consecutive folds grow in
    one lockstep while their bootstrap rows stay within TUNE_LOCKSTEP_ROWS,
    and each group's held-out records are scored in one member-masked routing
    pass. No out-of-bag error is computed. A ``stats`` dict, if given,
    receives ``cv_rmse``, each candidate's mean fold RMSE, and ``fold_rmse``,
    the (candidate, fold) RMSE array.
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

    x, ntree = train.covariates, cfg.ntree
    rng = np.random.default_rng([cfg.seed & _SEED_MASK, _TUNE_STREAM])
    fold_indices = np.array_split(rng.permutation(n), folds)
    fold_of = np.empty(n, dtype=np.int64)
    for f, test_idx in enumerate(fold_indices):
        fold_of[test_idx] = f
    # each fold's training records, in table order as train.subset(keep) has them
    kept = [np.flatnonzero(fold_of != f) for f in range(folds)]
    sizes = [len(rows) for rows in kept]
    groups = [range(folds)[part] for part in _batches(sizes, ntree, TUNE_LOCKSTEP_ROWS)]
    pred = np.empty((len(candidates), n))
    for group in groups:
        rngs, boots = [], []
        for f in group:
            streams, in_bag = _tree_draws(cfg, sizes[f])
            rngs += streams
            boots += [kept[f][boot] for boot in in_bag]
        # tree (f, t)'s stream after its bootstrap is the same for every candidate
        tapes = _Tapes(rngs)
        held = np.flatnonzero((fold_of >= group.start) & (fold_of < group.stop))
        member = np.repeat(fold_of[held] == np.array(group)[:, None], ntree, axis=0)
        for ci, cand in enumerate(candidates):
            trees = _grow_trees(x, z, boots, tapes, cand, cfg.min_leaf)
            pred[ci, held] = _leaf_sums(_stack(trees), x[held], member) / ntree
    fold_rmse = np.empty((len(candidates), folds))
    for ci in range(len(candidates)):
        for fi, test_idx in enumerate(fold_indices):
            err = pred[ci, test_idx] - z[test_idx]
            fold_rmse[ci, fi] = np.sqrt(np.mean(err * err))
    mean_rmse = [np.mean(row) for row in fold_rmse]
    if stats is not None:
        stats["cv_rmse"] = {c: float(m) for c, m in zip(candidates, mean_rmse)}
        stats["fold_rmse"] = fold_rmse
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
        for i in range(tree.n_nodes):
            if tree.feature[i] < 0:
                lines.append(f"{i} leaf {float(tree.value[i])!r}")
            else:
                lines.append(
                    f"{i} split {tree.feature[i]} {float(tree.threshold[i])!r} "
                    f"{tree.left[i]} {tree.right[i]}"
                )
    return "\n".join(lines) + "\n"


def write_forest(forest: Forest, path) -> None:
    Path(path).write_text(serialize_forest(forest))


def read_forest(path) -> Forest:
    """Read a forest written by :func:`write_forest`.

    Bootstrap membership is a fit-time artifact and is not serialized; the
    reloaded forest carries empty membership but predicts identically.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
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
        for node in range(n_nodes):
            i += 1
            try:
                parts = lines[i].split()
                if int(parts[0]) != node:
                    raise ValueError(f"node id {parts[0]} out of order")
                if parts[1] == "leaf":
                    feature[node] = -1
                    value[node] = float(parts[2])
                elif parts[1] == "split":
                    feat, lo, hi = int(parts[2]), int(parts[4]), int(parts[5])
                    if not 0 <= feat < p:
                        raise ValueError(f"feature {feat} outside [0, {p})")
                    # ids are preorder: a child follows its parent, so routing cannot cycle
                    if not (node < lo < n_nodes and node < hi < n_nodes):
                        raise ValueError(f"children {lo}, {hi} outside ({node}, {n_nodes})")
                    feature[node], threshold[node] = feat, float(parts[3])
                    left[node], right[node] = lo, hi
                else:
                    raise ValueError(f"unknown node kind {parts[1]!r}")
            except (IndexError, ValueError) as exc:
                raise ParseError(f"bad node line: {exc}", path=path, line=i + 1) from exc
        trees.append(Tree(feature, threshold, left, right, value))
        i += 1
    if i < len(lines):
        raise ParseError(f"line after the last of {ntree} trees", path=path, line=i + 1)
    return Forest(tuple(trees), (), oob_rmse, p, cfg)
