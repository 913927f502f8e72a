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


# distance pairs a search tile may cost against the whole training set; sets
# the tile size, floored at SEARCH_TILE_MIN queries so the per-tile numpy
# calls stay amortised
SEARCH_TILE_PAIRS = 1 << 13
SEARCH_TILE_MIN = 64

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
    if nq <= tile:
        return np.arange(nq)
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
    pair of (tile, k) tables: bit for bit what a brute-force scan of every
    training record gives, whatever the tile size (SEARCH_TILE_PAIRS // n
    queries, at least SEARCH_TILE_MIN). Each tile's tables go through
    ``reduce(indices, distances)`` as soon as the tile is searched, and only
    the reducer's per-query rows are kept: row q of the result is its row
    for query q, and the shape past the first axis and the dtype are those
    of ``reduce`` on a tile of 0 queries. So memory does not grow with
    queries x k. A reducer that treats each row on its own gives, bit for
    bit, its value on the whole tables. A ``stats`` dict, if given,
    receives the number of (query, candidate) distances computed, summed
    over tiles, as ``candidate_pairs``.

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
    both). On the candidates, kept in ascending index order, a stable
    argsort of the squared distances takes the k smallest, so the result is
    the brute-force one; the tile order only decides how much is pruned.
    """
    n = train_feats.shape[0]
    if not 1 <= k <= n:
        raise UsageError(f"k = {k} must lie in [1, {n}]: there are {n} training records")
    tile = max(SEARCH_TILE_MIN, SEARCH_TILE_PAIRS // n)
    empty = reduce(np.empty((0, k), dtype=np.int64), np.empty((0, k)))
    reduced = np.empty((len(query_feats),) + empty.shape[1:], dtype=empty.dtype)
    pairs = 0
    for rows, cand, d2 in _search_tiles(train_feats, query_feats, k, tile):
        pick = np.argsort(d2, axis=1, kind="stable")[:, :k]
        reduced[rows] = reduce(cand[pick], np.sqrt(np.take_along_axis(d2, pick, axis=1)))
        pairs += d2.size
    if stats is not None:
        stats["candidate_pairs"] = pairs
    return reduced


def _search_tiles(train_feats: np.ndarray, query_feats: np.ndarray, k: int, tile: int):
    """Yield, per tile of queries, the query rows, the candidate records in
    ascending index order and the (rows, candidates) squared distances; see
    neighbor_search."""
    nq = len(query_feats)
    if nq == 0:
        return
    # everything runs feature-major: numpy reduces a few contiguous rows far
    # faster than many rows of a few columns
    order = _tile_order(query_feats.T, tile)
    # permuted one feature at a time: a take of the whole transposed view
    # would first copy it
    query_cols = np.empty((query_feats.shape[1], nq))
    for f, col in enumerate(query_cols):
        col[:] = query_feats[order, f]
    train_cols = np.ascontiguousarray(train_feats.T)
    # every tile's bounding-box centre and radius, one feature at a time
    starts = np.arange(0, nq, tile)
    centres = (np.minimum.reduceat(query_cols, starts, axis=1)
               + np.maximum.reduceat(query_cols, starts, axis=1)) / 2
    radii = np.sqrt(np.maximum.reduceat(
        _squared_distances(query_cols, (np.repeat(c, tile)[:nq] for c in centres)), starts))
    for start, centre, radius in zip(starts, centres.T, radii):
        to_centre = np.sqrt(_squared_distances(train_cols, centre))
        reach = np.partition(to_centre, k - 1)[k - 1]
        cand = np.flatnonzero(to_centre <= (reach + 2 * radius) * (1 + PRUNE_MARGIN))
        d2 = _squared_distances(query_cols[:, start:start + tile, None], train_cols[:, cand])
        yield order[start:start + tile], cand, d2


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
