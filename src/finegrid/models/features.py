"""Feature-space assembly shared by the distance-based predictors.

A FeatureSpace selects which columns of a point table act as model features
(spatial coordinates, covariates, or both) and carries per-feature scaling
fitted on the training table. Scaling to unit variance keeps degrees and
covariate units commensurable inside one Euclidean distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ..grid import PointTable

MODES = ("coords", "covariates", "coords+covariates")


def raw_features(table: PointTable, mode: str) -> np.ndarray:
    """Unscaled feature matrix for a table under the given mode."""
    if mode == "coords":
        return np.column_stack([table.lon, table.lat])
    if mode == "covariates":
        if table.p == 0:
            raise UsageError("mode 'covariates' needs at least one covariate column")
        return table.covariates
    if mode == "coords+covariates":
        if table.p == 0:
            raise UsageError("mode 'coords+covariates' needs at least one covariate column")
        return np.column_stack([table.lon, table.lat, table.covariates])
    raise UsageError(f"unknown feature mode {mode!r}; expected one of {MODES}")


def _finite(values: np.ndarray, mode: str) -> np.ndarray:
    """Refuse non-finite features: one NaN in a training column makes that
    whole scaled column NaN, and NaN or infinite distances have no order."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise UsageError(f"feature mode {mode!r}: {bad} non-finite feature value(s)")
    return values


@dataclass(frozen=True)
class FeatureSpace:
    """Feature selection plus the scaling fitted on a training table."""

    mode: str
    means: np.ndarray
    stdevs: np.ndarray

    @classmethod
    def fit(cls, mode: str, table: PointTable) -> "FeatureSpace":
        """Scaling to zero mean and unit population variance per feature; a
        constant feature gets stdev 1, so it scales to zero."""
        if len(table) == 0:
            raise UsageError("a feature space needs at least one training record")
        raw = _finite(raw_features(table, mode), mode)
        means = raw.mean(axis=0)
        stdevs = raw.std(axis=0)
        stdevs = np.where(stdevs > 0, stdevs, 1.0)
        return cls(mode, means, stdevs)

    @property
    def nvars(self) -> int:
        return len(self.means)

    def features(self, table: PointTable) -> np.ndarray:
        """Scaled feature matrix; rows align with the table's records."""
        raw = raw_features(table, self.mode)
        if raw.shape[1] != self.nvars:
            raise UsageError(
                f"feature width {raw.shape[1]} does not match fitted width {self.nvars}"
            )
        # a finite cell far from the training range may overflow when scaled;
        # _finite reports it as a UsageError, so numpy need not warn too
        with np.errstate(over="ignore"):
            scaled = (raw - self.means) / self.stdevs
        return _finite(scaled, self.mode)


# queries per search tile: each tile has one centre, radius and candidate
# set, so a smaller tile prunes closer; the per-tile numpy calls are
# amortised by the batches
SEARCH_TILE = 64

# pairs a search batch may hold: (tile, record) pairs in a block of centre
# distances, and (query, candidate) pairs in a padded distance stack, cut
# by _batches; large enough to amortise the per-batch numpy calls, small
# enough that a batch's arrays add about 0.3 MB at peak; one tile alone
# may exceed it
SEARCH_BATCH_PAIRS = 1 << 14

# relative slack on the pruning radius, far above the rounding error of the
# distances it compares (see neighbor_search)
PRUNE_MARGIN = 1e-9


def _tile_order(cols: np.ndarray, tile: int) -> np.ndarray:
    """Order of the queries, given feature-major as ``cols`` (dim, nq), in
    which consecutive runs of ``tile`` queries are compact.

    Each feature is quantised into g bins, g**dim about nq / tile cells but
    at most 2**16, so the key is built one feature at a time in uint16 and
    sorts as uint16 (a radix sort). The cells are walked in boustrophedon
    order, a digit reversed when the key of the digits before it is odd, so
    consecutive cells touch.
    """
    dim, nq = cols.shape
    g = max(1, min(int(np.ceil((nq / tile) ** (1 / dim))), int(2 ** (16 / dim))))

    def bins(col: np.ndarray) -> np.ndarray:
        lo, hi = col.min(), col.max()
        scaled = col - lo
        scaled *= g / (hi - lo if hi > lo else 1.0)
        # clamped before the cast: with one feature g may be 2**16 itself
        return np.minimum(scaled, g - 1, out=scaled).astype(np.uint16)

    # the first digit is the key; every partial key stays below g**dim
    first, *rest = cols
    key = bins(first)
    for col in rest:
        b = bins(col)
        key = key * g + np.where(key % 2 == 1, g - 1 - b, b)
    return np.argsort(key, kind="stable")


def neighbor_search(train_feats: np.ndarray, query_feats: np.ndarray, k: int, reduce,
                    stats: dict | None = None) -> np.ndarray:
    """Exact k-nearest-neighbor search under Euclidean distance, reduced
    per query.

    Each query's k neighbors, ascending by distance with ties broken by
    lower training-record index, form one row of an (indices, distances)
    pair of (rows, k) tables: bit for bit what a brute-force scan of every
    training record gives, whatever the tile size (SEARCH_TILE queries) or
    the batch budget (SEARCH_BATCH_PAIRS). Consecutive tiles are searched in
    batches (see _search_batches), and each batch's tables go through
    ``reduce(indices, distances)`` as soon as the batch is searched; only
    the reducer's per-query rows are kept: row q of the result is its row
    for query q, and the shape past the first axis and the dtype are those
    of ``reduce`` on 0 queries. So memory does not grow with queries x k.
    A reducer that treats each row on its own gives, bit for bit, its
    value on the whole tables. A
    ``stats`` dict, if given, receives the number of (query, candidate)
    distances computed, padding not counted, as ``candidate_pairs``, which
    depends on the tile, and the number of queries whose k nearest were
    sorted again stably (see _first_k) as ``tie_resorts``, which depends on
    how the batches are cut; the results depend on neither.

    A squared distance is the sum of the features' squared differences
    added in feature order from 0.0. Below 8 features this is bit for bit
    numpy's row sum of the squared difference vector; from 8 on, numpy sums
    pairwise, and the feature order is the definition.

    Queries are searched in spatially compact tiles (see _tile_order). For
    a tile with bounding-box centre c and radius r, the largest distance
    from c to one of its queries, let d_k(c) be the k-th smallest distance
    from c to the training records. Only records t with
    |t - c| <= (d_k(c) + 2r) * (1 + PRUNE_MARGIN) are candidates. In exact
    arithmetic these include every record at or inside any tile query q's
    k-th distance D: the k records nearest c lie within d_k(c) + r of q, so
    D <= d_k(c) + r, and |t - q| <= D gives |t - c| <= d_k(c) + 2r.

    Rounding: each squared difference carries two roundings (the
    difference and its square) and the sequential sum of dim nonnegative
    terms at most dim - 1 more, so a computed squared distance is within a
    relative (dim + 2) * 2**-53 of the true one and a computed distance
    within (dim / 2 + 2) * 2**-53. The chain above (the radius, d_k(c), the
    brute-force ranking by computed squared distance, the final comparison
    and the bound's own three roundings) compounds them into at most about
    (2 * dim + 9) * 2**-53, which PRUNE_MARGIN exceeds for any width below
    a million features, given finite features whose squared differences
    neither overflow nor underflow (standardised features are far from
    both). Each tile's candidates are kept in ascending index order and
    padded with +inf distances up to the batch's widest tile; every tile
    has at least k finite candidates, so _first_k's k smallest, which are
    those of a stable argsort, are the brute-force result. The tile order
    and the batches only decide how much is pruned and how many numpy
    calls a search makes.
    """
    n = train_feats.shape[0]
    if not 1 <= k <= n:
        raise UsageError(f"k = {k} must lie in [1, {n}]: there are {n} training records")
    empty = reduce(np.empty((0, k), dtype=np.int64), np.empty((0, k)))
    reduced = np.empty((len(query_feats),) + empty.shape[1:], dtype=empty.dtype)
    pairs = resorts = 0
    for rows, idx, dist, batch_pairs, tied in _search_batches(train_feats, query_feats, k):
        reduced[rows] = reduce(idx, dist)
        pairs += batch_pairs
        resorts += tied
    if stats is not None:
        stats["candidate_pairs"] = pairs
        stats["tie_resorts"] = resorts
    return reduced


def _first_k(d2: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """The column positions of each row's k smallest values, ascending with
    ties to the lower position: ``np.argsort(d2, axis=1, kind="stable")[:, :k]``
    bit for bit, with the number of rows that took the stable sort when
    the fast one could not settle them.

    A row at most 2k wide takes the stable sort. A wider row takes numpy's
    default argsort, which may be a SIMD kernel that orders equal values
    arbitrarily, and is re-sorted stably only if two of its k + 1 smallest
    values are equal. That is exact: when v_0 < v_1 < ... < v_k are the
    first k + 1 values in sorted order, each v_j with j < k is held by one
    position alone, since any other position holding it would sort before
    j (values below v_j) or after it (values from v_{j+1} up). So every
    sort, stable or not, puts that one position at j, and the first k
    positions are the stable sort's, on any CPU and with any sort kernel.
    Values must not be NaN (+inf is fine: equal infinities count as a tie).
    """
    # the leading columns are copied, so the whole argsort is freed at once
    if d2.shape[1] <= 2 * k:
        return np.argsort(d2, axis=1, kind="stable")[:, :k].copy(), 0
    pick = np.argsort(d2, axis=1)[:, :k + 1].copy()
    head = _gather(d2, np.arange(len(d2)), pick)
    equal = head[:, 1:] == head[:, :-1]
    if not equal.any():  # one flat test; the per-row one costs several times more
        return pick[:, :k], 0
    tied = np.flatnonzero(equal.any(axis=1))
    pick[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k + 1]
    return pick[:, :k], len(tied)


def _search_batches(train_feats: np.ndarray, query_feats: np.ndarray, k: int):
    """Yield, per batch of consecutive tiles, the query rows, their (rows,
    k) neighbor indices and distances, the number of (query, candidate)
    distances computed, padding not counted, and the rows _first_k sorted
    again; see neighbor_search.

    Queries are searched in tiles of SEARCH_TILE. The tiles' centre
    distances are taken a block of SEARCH_BATCH_PAIRS // n tiles at a time,
    and _batches cuts each block into runs of consecutive tiles whose padded
    stacks, at the run's widest tile, hold at most SEARCH_BATCH_PAIRS pairs,
    or one tile."""
    nq, dim = query_feats.shape
    if nq == 0:
        return
    n, tile = len(train_feats), SEARCH_TILE
    tiles = -(-nq // tile)
    # everything runs feature-major: numpy reduces a few contiguous rows far
    # faster than many rows of a few columns
    order = _tile_order(query_feats.T, tile)
    # permuted one feature at a time, as a take of the whole transposed view
    # would first copy it; the last tile is filled up with copies of its
    # last query, which leave its geometry as it is, so that the queries of
    # any run of tiles reshape to (tiles, tile)
    query_cols = np.empty((dim, tiles * tile))
    for f, col in enumerate(query_cols):
        col[:nq] = query_feats[order, f]
        col[nq:] = col[nq - 1]
    # record n, a column of +inf, pads the candidate blocks: its squared
    # distance to any finite query is +inf
    train_cols = np.empty((dim, n + 1))
    train_cols[:, :n] = train_feats.T
    train_cols[:, n] = np.inf
    # every tile's bounding-box centre and radius, one feature at a time
    starts = np.arange(0, tiles * tile, tile)
    centres = (np.minimum.reduceat(query_cols, starts, axis=1)
               + np.maximum.reduceat(query_cols, starts, axis=1)) / 2
    radii = np.sqrt(np.maximum.reduceat(
        _squared_distances(query_cols, (np.repeat(c, tile) for c in centres)), starts))
    block = max(1, SEARCH_BATCH_PAIRS // n)
    for first in range(0, tiles, block):
        span = slice(first, first + block)
        to_centre = _squared_distances(train_cols[:, None, :n], centres[:, span, None])
        np.sqrt(to_centre, out=to_centre)
        reach = np.partition(to_centre, k - 1, axis=1)[:, k - 1]
        keep = to_centre <= ((reach + 2 * radii[span]) * (1 + PRUNE_MARGIN))[:, None]
        # reach is a view of the partitioned copy: both go before the stacks
        del to_centre, reach
        widths = np.count_nonzero(keep, axis=1)
        for part in _batches(widths.tolist(), tile, SEARCH_BATCH_PAIRS):
            width = widths[part]
            count, widest = len(width), int(width.max())
            # np.nonzero walks the tiles in turn, each in ascending index order
            cand = np.full((count, widest), n)
            cand[np.arange(widest) < width[:, None]] = np.nonzero(keep[part])[1]
            lo = (first + part.start) * tile
            hi = min(lo + count * tile, nq)
            d2 = _squared_distances(
                query_cols[:, lo:lo + count * tile].reshape(dim, count, tile, 1),
                train_cols[:, cand][:, :, None, :])
            # the filled-up rows of the last tile are searched but not kept
            d2 = d2.reshape(count * tile, widest)[:hi - lo]
            pick, tied = _first_k(d2, k)
            rows = np.arange(hi - lo)
            dist = np.sqrt(_gather(d2, rows, pick))
            # row i of the batch belongs to its tile i // tile
            idx = _gather(cand, rows // tile, pick)
            del d2  # so the stack is freed before the next batch's is built
            # every row scans its tile's real candidates; filled-up rows count none
            pairs = tile * int(width.sum()) - (lo + count * tile - hi) * int(width[-1])
            yield order[lo:hi], idx, dist, pairs, tied


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


def _gather(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``table[rows[i], cols[i, j]]`` for every (i, j), as one flat take: on
    a batch's arrays take_along_axis and 2-D fancy indexing cost three to
    four times as much."""
    return table.take(cols + (rows * table.shape[1])[:, None])


def _squared_distances(a_cols, b_cols) -> np.ndarray:
    """Sum of (a - b)**2 over paired features, added in feature order; each
    pair broadcasts as numpy arrays do."""
    total = None
    for a, b in zip(a_cols, b_cols):
        diff = a - b
        diff *= diff
        if total is None:
            total = diff
        else:
            total += diff
        del diff  # so one feature's arrays are freed before the next's
    return total
