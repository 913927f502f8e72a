"""Random forest regression: bagged CART trees with per-node feature sampling.

Each tree draws its bootstrap sample and all split randomness from an
independent stream seeded by (seed, tree index). The trees of a fit grow in
lockstep: every tree walks its own explicit preorder stack, recording leaves
as it pops them, until it pops a node that needs a split search (at least
2·min_leaf records and more than one target value). That node draws its
mtry features, and one batched search (:func:`_split_search`) then finds the
best split of every tree's pending node at once. The leaf test of both
children of every split in a step is one batched pass too. The forest equals
the one that growing each tree alone by recursion gives, bit for bit, for
five reasons:

- streams are per tree, so interleaving the trees changes no tree's draws;
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
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
# split search may take; the search holds about ten arrays of that shape.
# 1 MiB keeps a 500-tree fit's root step on thousands of records small.
SPLIT_STACK_BYTES = 1 << 20


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
    order = np.argsort(xs, axis=-1, kind="stable")
    xs = np.take_along_axis(xs, order, axis=-1)
    zs = np.take_along_axis(zs, order, axis=-1)
    c1 = np.cumsum(zs, axis=-1)
    c2 = np.cumsum(zs * zs, axis=-1)
    sizes_left = np.arange(1, width)
    sizes_right = sizes[:, None, None] - sizes_left
    sse_left = c2[..., :-1] - c1[..., :-1] ** 2 / sizes_left
    # padded positions have no right child; any divisor serves, as they fail `valid`
    sse_right = (c2[..., -1:] - c2[..., :-1]) - (c1[..., -1:] - c1[..., :-1]) ** 2 / np.maximum(
        sizes_right, 1
    )
    mid = (xs[..., :-1] + xs[..., 1:]) / 2.0
    valid = (
        (sizes_left >= min_leaf)
        & (sizes_right >= min_leaf)
        & (xs[..., :-1] < mid)
        & (mid < xs[..., 1:])
    )
    # a NaN score needs the node's sum of squared targets to overflow, and then
    # no score is below inf: the node is a leaf, as with a per-feature argmin
    score = np.where(valid, sse_left + sse_right, math.inf).reshape(nodes, -1)
    best = np.argmin(score, axis=1)
    found = score[np.arange(nodes), best] < math.inf
    f, i = np.divmod(best, width - 1)
    return [
        (int(feats[k, f[k]]), float(mid[k, f[k], i[k]])) if found[k] else None
        for k in range(nodes)
    ]


def _batches(sizes: list, row_bytes: int):
    """Cut consecutive nodes into slices whose padded stack fits SPLIT_STACK_BYTES;
    a node too large for the budget forms a slice of its own."""
    start, width = 0, 0
    for k, size in enumerate(sizes):
        width = max(width, size)
        if k > start and (k + 1 - start) * width * row_bytes > SPLIT_STACK_BYTES:
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


def _grow_trees(x: np.ndarray, z: np.ndarray, boots: list, rngs: list, mtry: int, min_leaf: int):
    """Grow one tree per bootstrap sample, all in lockstep (see the module docstring)."""
    p = x.shape[1]
    # per tree, one [feature, threshold, left, right, value] record per node
    built = [[] for _ in boots]
    # (node record, records) of every leaf; values are settled after growth
    leaves = []
    # stack entries: (records, is a leaf, parent's node record or None,
    # 2 for a left child, 3 for a right)
    stacks = [[(boot, leaf, None, 0)] for boot, leaf in zip(boots, _leaf_flags(z, boots, min_leaf))]
    while True:
        pending = []
        for tree, stack, rng in zip(built, stacks, rngs):
            while stack:
                rows, leaf, parent, side = stack.pop()
                node = [-1, 0.0, -1, -1, 0.0]
                if parent is not None:
                    parent[side] = len(tree)
                tree.append(node)
                if leaf:
                    leaves.append((node, rows))
                    continue
                pending.append((stack, node, rows, rng.choice(p, size=mtry, replace=False)))
                break
        if not pending:
            break
        splits = []
        for part in _batches([len(rows) for _, _, rows, _ in pending], 8 * mtry):
            batch = pending[part]
            splits += _split_search(
                x, z, [rows for _, _, rows, _ in batch], np.array([f for *_, f in batch]), min_leaf
            )
        children = []
        for (stack, node, rows, _), split in zip(pending, splits):
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

    rngs = [np.random.default_rng([cfg.seed & _SEED_MASK, t]) for t in range(cfg.ntree)]
    in_bag = tuple(rng.integers(0, n, size=n) for rng in rngs)

    def grow(group: slice) -> list:
        return _grow_trees(x, z, in_bag[group], rngs[group], cfg.mtry, cfg.min_leaf)

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
    train: PointTable, cfg: RfConfig, candidates: list[int] | None = None, folds: int = 10
) -> int:
    """Pick the candidate mtry with the lowest mean k-fold RMSE.

    Records are shuffled once by a seeded stream and split into near-equal
    folds; every candidate sees the same folds. Ties go to the smaller mtry.
    """
    train.require_targets()
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
    fold_indices = np.array_split(rng.permutation(n), folds)
    mean_rmse = np.empty(len(candidates))
    for ci, cand in enumerate(candidates):
        fold_rmse = np.empty(folds)
        for fi, test_idx in enumerate(fold_indices):
            keep = np.ones(n, dtype=bool)
            keep[test_idx] = False
            fitted = rf_fit(train.subset(keep), replace(cfg, mtry=cand))
            pred = rf_predict(fitted, train.subset(test_idx))
            err = pred - train.target[test_idx]
            fold_rmse[fi] = np.sqrt(np.mean(err * err))
        mean_rmse[ci] = np.mean(fold_rmse)
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
