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
    at most 2**16 so the key sorts as uint16 (a radix sort). The cells are
    walked in boustrophedon order, a digit reversed when the key of the
    digits before it is odd, so consecutive cells touch.
    """
    dim, nq = cols.shape
    if nq <= tile:
        return np.arange(nq)
    g = max(1, min(int(np.ceil((nq / tile) ** (1 / dim))), int(2 ** (16 / dim))))
    lo = cols.min(axis=1, keepdims=True)
    span = cols.max(axis=1, keepdims=True) - lo
    bins = ((cols - lo) * (g / np.where(span > 0, span, 1.0))).astype(np.int64)
    key = np.zeros(nq, dtype=np.int64)
    for b in np.minimum(bins, g - 1):
        key = key * g + np.where(key % 2 == 1, g - 1 - b, b)
    return np.argsort(key.astype(np.uint16), kind="stable")


def neighbor_search(train_feats: np.ndarray, query_feats: np.ndarray, k: int):
    """Exact k-nearest-neighbor search under Euclidean distance.

    Returns (indices, distances), each (nq, k), neighbors ascending by
    distance with ties broken by lower training-record index: bit for bit
    what a brute-force scan of every training record gives, whatever the
    tile size (SEARCH_TILE_PAIRS // n queries, at least SEARCH_TILE_MIN).

    Queries are searched in spatially compact tiles (see _tile_order). For
    a tile with bounding-box centre c and radius r, the largest distance
    from c to one of its queries, let d_k(c) be the k-th smallest distance
    from c to the training records. Only records t with
    |t - c| <= (d_k(c) + 2r) * (1 + PRUNE_MARGIN) are candidates. In exact
    arithmetic these include every record at or inside any tile query q's
    k-th distance D: the k records nearest c lie within d_k(c) + r of q, so
    D <= d_k(c) + r, and |t - q| <= D gives |t - c| <= d_k(c) + 2r.

    Rounding: a computed squared distance is within a relative
    (dim + 2) * 2**-53 of the true one and a computed distance within
    (dim / 2 + 2) * 2**-53. The chain above (the radius, d_k(c), the
    brute-force ranking by computed squared distance, the final comparison
    and the bound's own three roundings) compounds them into at most about
    (2 * dim + 9) * 2**-53, which PRUNE_MARGIN exceeds for any width below
    a million features, given finite features whose squared differences
    neither overflow nor underflow (standardised features are far from
    both). On the candidates, kept in ascending index order, squared
    distances come from the brute-force expression and a stable argsort
    takes the k smallest, so the result is the brute-force one; the tile
    order only decides how much is pruned.
    """
    n = train_feats.shape[0]
    if not 1 <= k <= n:
        raise UsageError(f"k = {k} must lie in [1, {n}]: there are {n} training records")
    nq = query_feats.shape[0]
    tile = max(SEARCH_TILE_MIN, SEARCH_TILE_PAIRS // n)
    # the pruning arithmetic runs feature-major: numpy reduces a few
    # contiguous rows far faster than many rows of a few columns
    query_cols = np.ascontiguousarray(query_feats.T)
    order = _tile_order(query_cols, tile)
    query_cols = query_cols[:, order]
    train_cols = np.ascontiguousarray(train_feats.T)
    indices = np.empty((nq, k), dtype=np.int64)
    distances = np.empty((nq, k))
    for start in range(0, nq, tile):
        cols = query_cols[:, start:start + tile]
        centre = (cols.min(axis=1, keepdims=True) + cols.max(axis=1, keepdims=True)) / 2
        radius = np.sqrt(((cols - centre) ** 2).sum(axis=0).max())
        to_centre = np.sqrt(((train_cols - centre) ** 2).sum(axis=0))
        reach = np.partition(to_centre, k - 1)[k - 1]
        cand = np.flatnonzero(to_centre <= (reach + 2 * radius) * (1 + PRUNE_MARGIN))
        rows = order[start:start + tile]
        diff = query_feats[rows][:, None, :] - train_feats[cand][None, :, :]
        d2 = (diff * diff).sum(axis=2)
        pick = np.argsort(d2, axis=1, kind="stable")[:, :k]
        indices[rows] = cand[pick]
        distances[rows] = np.sqrt(np.take_along_axis(d2, pick, axis=1))
    return indices, distances
