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
stable partition of the split nodes' records into their children. Node ids
are breadth first within each tree. The forest equals growing each tree
alone, one node at a time from a FIFO queue, bit for bit:

- the stable partition keeps each child's records in their parent's order,
  as masking the parent's records does;
- a stable argsort's permutation is unique, so sorting a node's padded row
  orders its records exactly as sorting them alone does, and the cumulative
  sums, midpoints and scores over that prefix are the same float operations;
- padding sorts last (+inf features) and adds nothing (0.0 targets); every
  padded position fails the size or midpoint test, so it never wins;
- leaf values are settled after growth, one ``np.mean(axis=1)`` per distinct
  leaf size over a (leaves, size) block, which sums each row in the same
  pairwise order as ``np.mean`` over that leaf alone. Rows are never padded:
  numpy's pairwise sum groups by length.

Fitting is therefore bit-identical run to run, for any batch size and
whichever trees grow together.

Routing (:func:`_route`) walks every (tree, row) pair at once over the
trees' node arrays laid end to end, reading covariates feature-major.
Comparisons are exact, so every pair reaches the leaf that routing it alone
does. One pass (:func:`_leaf_sums`) routes and sums for ``rf_predict``,
over all trees, for the out-of-bag error, over each record's out-of-bag
trees, and for tuning's held-out scores, over the trees of each record's own
fold. It takes rows in chunks of at most ROUTE_PAIRS pairs, and at least one
row of ntree pairs, so memory does not grow with the query count. bincount
adds each row's leaves in tree order from 0.0: the same float additions as a
per-tree loop. The chunks run on ``workers`` threads, each writing only its
own rows; chunk bounds do not depend on ``workers``, so neither do the sums.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ParseError, UsageError
from ..grid import PointTable
from .features import _batches

_SEED_MASK = (1 << 64) - 1

# stream tag separating the fold shuffle in tune_mtry from tree streams
_TUNE_STREAM = 0x7E5

# (tree, row) pairs one routing chunk walks at most; a chunk is still at least
# one row of ntree pairs, and memory does not grow with the query count. It
# also bounds the (tree, bootstrap record) pairs of one tune_mtry fold group,
# which still holds at least one fold
ROUTE_PAIRS = 1 << 15

# bytes the padded (nodes, mtry, largest node) float stack of one batched
# split search may take; the search holds at most four arrays of that shape,
# and a few of (nodes, largest node), at once. Small batches stay near cache
# size: on a 2-CPU host 64 KiB ran the rf-tune benchmark 3-5 % faster than
# 128 KiB, and tuning 720 records (p 4, 10 folds, 100 trees) peaked at 48 MB
# RSS, against 52 MB at 1 MiB.
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
    """A fitted ensemble plus its out-of-bag error."""

    trees: tuple
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


def _leaf_sums(stacked: tuple, x: np.ndarray, member: np.ndarray, workers: int) -> np.ndarray:
    """Per row q of x, the sum of the leaves q reaches in the trees t of the
    :func:`_stack` arrays where ``member[t, q]`` holds, added in tree order
    from 0.0; row chunks run on ``workers`` threads (see the module docstring)."""
    ntree, nq = member.shape
    step = max(1, ROUTE_PAIRS // ntree)
    sums = np.empty(nq)

    def route_chunk(lo: int) -> None:
        chunk = x[lo : lo + step]
        # tree-major pairs, so bincount adds each row's leaves in tree order
        trees, rows = np.nonzero(member[:, lo : lo + step])
        leaves = _route(stacked, chunk, trees, rows)
        sums[lo : lo + step] = np.bincount(rows, weights=leaves, minlength=len(chunk))

    # one thread needs no pool, whose start cost about 2 ms a call on rf-tune's inputs
    if workers == 1:
        list(map(route_chunk, range(0, nq, step)))
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(route_chunk, range(0, nq, step)))
    return sums


def _split_search(x: np.ndarray, z: np.ndarray, rows, sizes, feats: np.ndarray, min_leaf: int):
    """Lowest-SSE (feature, threshold) of each node over its sampled features.

    Node k holds ``sizes[k]`` records of x and z, listed node after node in
    ``rows``, and samples the features ``feats[k]``. Thresholds are midpoints
    between consecutive sorted values, kept only when they fall strictly
    between the two values and both children reach min_leaf. Ties keep the
    earliest sampled feature, then the lowest threshold. All nodes are
    searched in one padded (nodes, mtry, largest node) stack. Returns the
    (feature, threshold) arrays; feature is -1 where no threshold is kept.
    """
    nodes, mtry = feats.shape
    width = int(sizes.max())
    node = np.repeat(np.arange(nodes), sizes)
    pos = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    xs = np.full((nodes, mtry, width), np.inf)
    xs[node, :, pos] = x[rows[:, None], feats[node]]
    zs = np.zeros((nodes, 1, width))
    zs[node, 0, pos] = z[rows]
    del node, pos
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
    k = np.arange(nodes)
    found = score[k, best] < math.inf
    f, i = np.divmod(best, width - 1)
    return np.where(found, feats[k, f], -1), np.where(found, mid[k, f, i], 0.0)


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
                    x, z, search_rows[bounds[part.start] : bounds[part.stop]],
                    search_sizes[part], feats[part], min_leaf,
                )
                for part in _batches(search_sizes.tolist(), 8 * mtry, SPLIT_STACK_BYTES)
            ]
            feature[search] = np.concatenate([f for f, _ in splits])
            threshold[search] = np.concatenate([t for _, t in splits])
        split = feature >= 0
        leaves.append((grown + np.flatnonzero(~split), z[rows[~split[node]]], sizes[~split]))
        # one stable partition sends each split node's records to its left
        # child, then its right, keeping their order
        on = split[node]
        rows, node = rows[on], node[on]
        child = 2 * (np.cumsum(split) - 1)[node] + ~(x[rows, feature[node]] <= threshold[node])
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
    x = train.covariates

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
    calling thread. A ``stats`` dict, if given, receives ``cv_rmse``, each
    candidate's mean fold RMSE, ``fold_rmse``, the (candidate, fold) RMSE
    array, and ``fold_groups``, the number of folds in each group.
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
    x = train.covariates
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
        stats["cv_rmse"] = {c: float(m) for c, m in zip(candidates, mean_rmse)}
        stats["fold_rmse"] = fold_rmse
        stats["fold_groups"] = [group.stop - group.start for group in groups]
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


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} {text} is not finite")
    return value


def read_forest(path) -> Forest:
    """Read a forest written by :func:`write_forest`; it predicts as the
    forest written does. A malformed file, a non-finite split threshold or
    leaf value included, raises :class:`ParseError` naming the line."""
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
                    value[node] = _finite(parts[2], "leaf value")
                elif parts[1] == "split":
                    feat, lo, hi = int(parts[2]), int(parts[4]), int(parts[5])
                    if not 0 <= feat < p:
                        raise ValueError(f"feature {feat} outside [0, {p})")
                    # a child's id follows its parent's (breadth first, or preorder in
                    # older files), so routing cannot cycle
                    if not (node < lo < n_nodes and node < hi < n_nodes):
                        raise ValueError(f"children {lo}, {hi} outside ({node}, {n_nodes})")
                    feature[node], threshold[node] = feat, _finite(parts[3], "threshold")
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
