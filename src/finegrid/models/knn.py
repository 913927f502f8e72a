"""k-nearest-neighbor regression over a scaled feature space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ..grid import PointTable
from .features import FeatureSpace, neighbor_search

WEIGHTINGS = ("uniform", "inverse-distance")

# floor on distances so a query coincident with a training point gets a
# finite, dominating weight instead of a zero division
DISTANCE_EPS = 1e-12


@dataclass(frozen=True)
class KnnConfig:
    k: int
    weighting: str = "uniform"

    def __post_init__(self):
        if self.k < 1:
            raise UsageError("k must be at least 1")
        if self.weighting not in WEIGHTINGS:
            raise UsageError(f"weighting must be one of {WEIGHTINGS}")


def neighbor_mean(targets: np.ndarray) -> np.ndarray:
    """Uniform neighbor average over the last axis.

    Single shared reduction so every degree-0 path in this package produces
    bit-identical values for the same neighbor set.
    """
    return np.mean(targets, axis=-1)


def knn_predict(
    train: PointTable,
    queries: PointTable,
    cfg: KnnConfig,
    space: FeatureSpace,
    stats: dict | None = None,
) -> np.ndarray:
    """Predict each query as the (weighted) average target of its k nearest
    training records.

    Uniform weighting is the arithmetic mean; inverse-distance weighting uses
    w = 1/max(d, 1e-12) over the scaled Euclidean distances. Each search
    batch is reduced as soon as it is searched (see neighbor_search), so
    memory does not grow with queries x k, and every row is reduced on its
    own, so each prediction is bit for bit that of the whole (nq, k)
    tables. A ``stats`` mapping, if given, records the search's
    ``search_candidate_pairs`` and ``search_tie_resorts``.
    """
    z = train.require_targets()

    def reduce(idx: np.ndarray, dist: np.ndarray) -> np.ndarray:
        neighbor_z = z[idx]
        if cfg.weighting == "uniform":
            return neighbor_mean(neighbor_z)
        w = 1.0 / np.maximum(dist, DISTANCE_EPS)
        return (w * neighbor_z).sum(axis=1) / w.sum(axis=1)

    return neighbor_search(space.features(train), space.features(queries), cfg.k, reduce=reduce,
                           stats=stats)
