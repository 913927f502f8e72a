"""Local polynomial regression with leave-one-out degree selection.

HYPPO is piecewise polynomial: the degree of the local fit depends on the
k-neighbor set alone. Queries are grouped by their distinct neighbor set
(the sorted index row). For each set, the polynomial degree whose
leave-one-out error over the set is smallest (ties to the lower degree) is
picked once, with the set's features centered on its centroid, and every
query that shares the set takes that degree. Each query then refits its
degree on its k neighbors with features centered on the query, so the
fitted constant term is the prediction and the basis stays well
conditioned; degree 0 is the neighbor mean in distance order.

Every fit, leave-one-out fold or final refit, is solved by pseudo-inverse
with cutoff sigma <= 1e-10 * sigma_max, so rank-deficient neighborhoods (the
rule when training points sit on a lattice) need no separate path. All folds
of a chunk of neighbor sets are fit by one batched SVD per candidate degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from ..errors import UsageError
from ..grid import PointTable
from .features import FeatureSpace, neighbor_search
from .knn import neighbor_mean

# LOO error sums closer than this (scaled by the targets' magnitude) are
# ties; fitting noise on exactly-polynomial data lands far below it
TIE_REL = 1e-10

# singular-value cutoff for rank-deficient least squares, relative to the
# largest singular value
RCOND = 1e-10

# size in bytes of the (chunk, k, k-1, m) fold design stack; sets the chunk
# of neighbor sets, so memory stays flat as k and the monomial count m grow
FOLD_STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class HyppoConfig:
    k: int
    max_degree: int = 3

    def __post_init__(self):
        if self.k < 2:
            raise UsageError("hyppo needs k >= 2 for leave-one-out selection")
        if self.max_degree < 0:
            raise UsageError("max_degree must be non-negative")


def monomial_count(nvars: int, degree: int) -> int:
    """Dimension of the polynomial space of total degree <= degree in nvars."""
    return math.comb(nvars + degree, nvars)


def monomial_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials with total degree <= degree, graded
    order, constant term first."""
    exponents = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            e = [0] * nvars
            for var in combo:
                e[var] += 1
            exponents.append(tuple(e))
    return exponents


def design_matrix(features: np.ndarray, exponents: list[tuple[int, ...]]) -> np.ndarray:
    """Monomial design matrix; works on any (..., k, nvars) stack."""
    feats = np.asarray(features, dtype=float)
    out = np.ones(feats.shape[:-1] + (len(exponents),))
    for j, exp in enumerate(exponents):
        for var, power in enumerate(exp):
            if power:
                out[..., j] *= feats[..., var] ** power
    return out


def admissible_degrees(nvars: int, k: int, max_degree: int) -> list[int]:
    """Candidate degrees whose monomial count fits k - 1 leave-one-out points."""
    return [d for d in range(max_degree + 1) if monomial_count(nvars, d) <= k - 1]


def _lstsq(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse least squares on a stack x (..., n, m), z (..., n), with
    np.linalg.pinv's cutoff sigma <= RCOND * sigma_max; returns the
    coefficients (..., m) and the numerical rank (...)."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    keep = s > RCOND * s.max(axis=-1, keepdims=True)
    scaled = np.einsum("...nr,...n->...r", u, z) / np.where(keep, s, np.inf)
    return np.einsum("...rm,...r->...m", vt, scaled), keep.sum(axis=-1)


@dataclass(frozen=True)
class PolyFit:
    """A fitted polynomial in nvars variables."""

    coefficients: np.ndarray
    degree: int
    nvars: int
    rank_deficient: bool = False

    def __call__(self, features: np.ndarray) -> np.ndarray:
        x = design_matrix(np.atleast_2d(np.asarray(features, dtype=float)),
                          monomial_exponents(self.nvars, self.degree))
        return x @ self.coefficients


def fit_polynomial(features: np.ndarray, targets: np.ndarray, degree: int) -> PolyFit:
    """Least-squares fit over the full monomial basis of total degree <= degree.

    Rank-deficient systems are resolved by the pseudo-inverse with cutoff
    sigma <= 1e-10 * sigma_max and flagged on the result.
    """
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    z = np.asarray(targets, dtype=float)
    if len(feats) < 1:
        raise UsageError("fit_polynomial needs at least one point")
    if degree == 0:
        return PolyFit(np.array([neighbor_mean(z)]), 0, feats.shape[1])
    exps = monomial_exponents(feats.shape[1], degree)
    coef, rank = _lstsq(design_matrix(feats, exps), z)
    return PolyFit(coef, degree, feats.shape[1], bool(rank < len(exps)))


def _tie_tolerance(targets: np.ndarray) -> np.ndarray:
    """Magnitude-relative tie tolerance of each target vector (last axis)."""
    return TIE_REL * (1.0 + np.mean(targets * targets, axis=-1))


def _loo_errors(feats: np.ndarray, z: np.ndarray, degree: int) -> np.ndarray:
    """Leave-one-out error sums for one degree across a stack of queries.

    feats: (c, k, nvars) neighbor features; z: (c, k) neighbor targets. The
    k fold design matrices of every query form one (c, k, k-1, m) stack.
    """
    k = z.shape[1]
    if degree == 0:
        loo_mean = (z.sum(axis=1, keepdims=True) - z) / (k - 1)
        return ((z - loo_mean) ** 2).sum(axis=1)
    x = design_matrix(feats, monomial_exponents(feats.shape[2], degree))
    rest = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)  # fold i drops row i
    coef, _ = _lstsq(x[:, rest], z[:, rest])
    pred = np.einsum("ckm,ckm->ck", x, coef)
    return ((pred - z) ** 2).sum(axis=1)


def _select_degrees(feats: np.ndarray, z: np.ndarray, candidates: list[int]) -> np.ndarray:
    """Selected degree of each query in a (c, k, nvars) stack: the lowest
    leave-one-out error sum, where sums within the tie tolerance of the
    minimum go to the lower degree."""
    errors = np.stack([_loo_errors(feats, z, d) for d in candidates])
    tied = errors <= errors.min(axis=0) + _tie_tolerance(z)
    return np.asarray(candidates)[tied.argmax(axis=0)]


def hyppo_select_degree(features: np.ndarray, targets: np.ndarray, max_degree: int) -> int:
    """Pick the candidate degree with the lowest leave-one-out error sum.

    Each of the k neighbors is held out once; a polynomial of the candidate
    degree is fit on the rest and scored at the held-out point. Error sums
    within a small magnitude-relative tolerance of the minimum count as ties,
    and ties go to the lower degree.
    """
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    z = np.asarray(targets, dtype=float)
    k = len(z)
    if k < 2:
        raise UsageError("degree selection needs at least 2 neighbors")
    candidates = admissible_degrees(feats.shape[1], k, max_degree)
    return int(_select_degrees(feats[None], z[None], candidates)[0])


def neighbor_sets(idx: np.ndarray, n_train: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct neighbor sets of an (nq, k) index table into n_train records:
    the sets as sorted index rows (s, k) in lexicographic order, in the
    smallest unsigned dtype that holds n_train - 1, and each query's set
    number (nq,)."""
    keys = np.sort(idx.astype(np.min_scalar_type(n_train - 1)), axis=1)
    # the same sets and inverse as np.unique(keys, axis=0), whose sort of
    # opaque rows is about 13x slower than one stable integer sort per column
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def hyppo_predict_with_degrees(
    train: PointTable,
    queries: PointTable,
    cfg: HyppoConfig,
    space: FeatureSpace,
    chunk: int | None = None,
    stats: dict | None = None,
):
    """Predictions, the per-query selected degree, and whether each query's
    refit at that degree was rank-deficient.

    The degree is selected once per distinct neighbor set, so queries that
    share a set share a degree. Degree 0 predicts through the same
    neighbor-mean reduction as uniform kNN, so the two agree bit for bit on
    identical neighborhoods. Results do not depend on the chunk size (sets
    per leave-one-out stack), which defaults to FOLD_STACK_BYTES' worth. A
    ``stats`` dict, if given, receives the number of distinct sets as
    ``neighbor_sets``.
    """
    z = train.require_targets()
    train_f = space.features(train)
    query_f = space.features(queries)
    idx, _ = neighbor_search(train_f, query_f, cfg.k)
    candidates = admissible_degrees(space.nvars, cfg.k, cfg.max_degree)
    fold_bytes = 8 * cfg.k * (cfg.k - 1) * monomial_count(space.nvars, candidates[-1])
    chunk = chunk or max(1, FOLD_STACK_BYTES // fold_bytes)

    sets, inverse = neighbor_sets(idx, len(train))
    set_degrees = np.empty(len(sets), dtype=np.int64)
    for start in range(0, len(sets), chunk):
        members = sets[start:start + chunk]
        feats = train_f[members]
        set_degrees[start:start + chunk] = _select_degrees(
            feats - feats.mean(axis=1, keepdims=True), z[members], candidates)
    degrees = set_degrees[inverse]
    if stats is not None:
        stats["neighbor_sets"] = len(sets)

    nq = len(queries)
    predictions = np.empty(nq)
    rank_deficient = np.zeros(nq, dtype=bool)
    # a refit stack (c, k, m) holds k - 1 times as many queries as the fold
    # stack holds sets in the same bytes
    step = chunk * (cfg.k - 1)
    for start in range(0, nq, step):
        selected = degrees[start:start + step]
        zero = start + np.nonzero(selected == 0)[0]
        predictions[zero] = neighbor_mean(z[idx[zero]])
        for d in np.unique(selected[selected > 0]):
            sel = start + np.nonzero(selected == d)[0]
            centered = train_f[idx[sel]] - query_f[sel][:, None, :]
            exps = monomial_exponents(space.nvars, int(d))
            coef, rank = _lstsq(design_matrix(centered, exps), z[idx[sel]])
            predictions[sel] = coef[:, 0]
            rank_deficient[sel] = rank < len(exps)
    return predictions, degrees, rank_deficient


def hyppo_predict(
    train: PointTable,
    queries: PointTable,
    cfg: HyppoConfig,
    space: FeatureSpace,
    target_range: tuple[float, float] | None = None,
) -> np.ndarray:
    """Local polynomial prediction at each query, clipped to ``target_range``
    if given; see module docstring."""
    predictions = hyppo_predict_with_degrees(train, queries, cfg, space)[0]
    return predictions if target_range is None else np.clip(predictions, *target_range)
