"""Local polynomial regression with leave-one-out degree selection.

HYPPO is piecewise polynomial: the degree of the local fit depends on the
k-neighbor set alone. Queries are grouped by their distinct neighbor set
(the sorted index row). For each set, the polynomial degree whose
leave-one-out error over the set is smallest (ties to the lower degree) is
picked once, with the set's features centered on its centroid, and every
query that shares the set takes that degree.

The SVD that scores a degree also gives the set's own fit at it and the
set's rank test, the only one HYPPO makes. When that fit has full rank, it
is the set's unique least-squares polynomial, whatever the centre, so each
query of the set is predicted by evaluating it at the query. Every other
query is refit through fit_polynomial on its k neighbors centered on the
query, so the fitted constant term is the prediction, one stacked call per
degree and chunk of queries: degree 0, which is the neighbor mean in
distance order, and the queries of a rank-deficient set, whose minimum-norm
solution depends on the centre.

Every fit of degree >= 1, leave-one-out fold, set fit or refit, is solved
by pseudo-inverse with cutoff sigma <= 1e-10 * sigma_max, so rank-deficient
neighborhoods (the rule when training points sit on a lattice) need no
separate path. The leave-one-out errors of a set come from one SVD of its
design per candidate degree, through the hat-matrix (PRESS) identity; a row
of leverage 1, which the identity cannot score, takes its own fold fit, and
the count of those is reported. Each stacked SVD is computed per matrix, so
how queries are grouped into stacks changes no bit.
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

# rows whose leverage is within this of 1 take their own leave-one-out fold
# fit instead of the PRESS identity; see _loo_errors
LEVERAGE_TOL = 1e-6

# size in bytes a (chunk, k, k-1, m) stack of every fold's design would take;
# sets the chunk of neighbor sets, whose (chunk, k, m) designs and SVDs take
# k - 1 times less, so memory stays flat as k and the monomial count m grow
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


def _solve(
    u: np.ndarray, s: np.ndarray, vt: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse solution V S^+ U^T z of a stack from its thin SVD, u
    (..., n, m), s (..., m), vt (..., m, m), with np.linalg.pinv's cutoff
    sigma <= RCOND * sigma_max; returns the coefficients (..., m) and the
    numerical rank (...)."""
    keep = s > RCOND * s.max(axis=-1, keepdims=True)
    scaled = np.einsum("...nr,...n->...r", u, z) / np.where(keep, s, np.inf)
    return np.einsum("...rm,...r->...m", vt, scaled), keep.sum(axis=-1)


def _lstsq(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pseudo-inverse least-squares coefficients (..., m) on a stack
    x (..., n, m), z (..., n); see _solve."""
    return _solve(*np.linalg.svd(x, full_matrices=False), z)[0]


def fit_polynomial(features: np.ndarray, targets: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares fits over the full monomial basis of total degree <=
    degree, one per set of a stack: features (..., n, nvars), targets (..., n).

    Returns the coefficients (..., m), constant term first. Degree 0 is the
    neighbor mean; any other degree is solved by pseudo-inverse with cutoff
    sigma <= 1e-10 * sigma_max.
    """
    feats = np.asarray(features, dtype=float)
    z = np.asarray(targets, dtype=float)
    if z.shape[-1] < 1:
        raise UsageError("fit_polynomial needs at least one point")
    if degree == 0:
        return neighbor_mean(z)[..., None]
    return _lstsq(design_matrix(feats, monomial_exponents(feats.shape[-1], degree)), z)


def _tie_tolerance(targets: np.ndarray) -> np.ndarray:
    """Magnitude-relative tie tolerance of each target vector (last axis)."""
    return TIE_REL * (1.0 + np.mean(targets * targets, axis=-1))


def _loo_errors(
    feats: np.ndarray, z: np.ndarray, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Leave-one-out errors z_i - zhat_(i) of one degree across a stack of
    neighbor sets, feats (c, k, nvars) and z (c, k), and which rows (c, k)
    took their own fold fit; also each set's own fit, its coefficients (c, m)
    on these features, and whether that fit has full rank (c,).

    Degree 0 holds each row out of the mean. Any other degree takes one full
    SVD X = U S V^T of each set's design. Let W be the columns of U outside
    those _lstsq keeps (sigma > RCOND * sigma_max). The set's fit is
    V S^+ U^T z with that same cutoff, its residual is e = W W^T z, the
    leverage h_i has 1 - h_i = |W_i|^2 (taken from W to spare h near 1 the
    cancellation of 1 - |U_i|^2), and the leave-one-out error is
    e_i / (1 - h_i) (PRESS: Allen 1974; ESL 7.10).

    Proof, for pseudo-inverse fold fits, rank-deficient ones included: let
    zhat_(i) = x_i b_(i) for fold i's fit b_(i), and z* be z with z_i
    replaced by zhat_(i). Row i costs b_(i) nothing on z* and b_(i) is
    optimal on the other rows, so X b_(i) is the projection of z*; its row i
    reads zhat_(i) = zhat_i - h_i (z_i - zhat_(i)), so (1 - h_i)(z_i -
    zhat_(i)) = e_i. That fixes the error unless h_i = 1, which happens
    exactly when dropping row i lowers the rank (a lattice point that alone
    supports a monomial): then the fold's least-squares solutions disagree
    at x_i and the pseudo-inverse picks one.

    Rows with 1 - h_i < LEVERAGE_TOL take their fold fit: the same _lstsq on
    the same (k - 1, m) matrix as a stack of every fold, so their errors
    match that stack's bit for bit. A rank-lowering row's 1 - h_i is
    rounding alone (below 1e-26 on lattices, gapped or not), far under the
    tolerance; a row that keeps the rank is exact on either side of it.
    Above it, 1 / (1 - h_i) magnifies the rounding of e_i at most 1e6 times;
    on gapped lattices and on scattered sets with k barely above m, where h
    comes within 1e-7 of 1, the error sums stayed within 1e-10 relative of
    per-fold pseudo-inverse fits.
    """
    c, k = z.shape
    if degree == 0:
        loo_mean = (z.sum(axis=1, keepdims=True) - z) / (k - 1)
        return (z - loo_mean, np.zeros(z.shape, dtype=bool), z.mean(axis=1, keepdims=True),
                np.ones(c, dtype=bool))
    x = design_matrix(feats, monomial_exponents(feats.shape[2], degree))
    m = x.shape[2]
    u, s, vt = np.linalg.svd(x)
    set_coef, rank = _solve(u[:, :, :m], s, vt, z)
    # sigma comes sorted, so the kept columns lead
    w = u * (np.arange(k) >= rank[:, None])[:, None, :]
    one_minus_leverage = np.einsum("ckr,ckr->ck", w, w)
    residual = np.einsum("ckr,cr->ck", w, np.einsum("ckr,ck->cr", w, z))
    folded = one_minus_leverage < LEVERAGE_TOL
    errors = residual / np.where(folded, 1.0, one_minus_leverage)
    sets, rows = np.nonzero(folded)
    if len(sets):
        rest = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)[rows]  # fold drops the row
        coef = _lstsq(x[sets[:, None], rest], z[sets[:, None], rest])
        errors[sets, rows] = z[sets, rows] - np.einsum("nm,nm->n", x[sets, rows], coef)
    return errors, folded, set_coef, rank == m


def _select_degrees(
    feats: np.ndarray, z: np.ndarray, candidates: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Selected degree of each set in a (c, k, nvars) stack: the lowest
    leave-one-out error sum, where sums within the tie tolerance of the
    minimum go to the lower degree.

    Also returns the set's fit at that degree, its coefficients (c, m) on
    these features zero-padded to the last candidate's m (monomials come in
    graded order, so a lower degree's lead), whether that fit has full rank
    (c,), and the number of fold fits per candidate degree."""
    errors, folded, coefs, full_rank = zip(*(_loo_errors(feats, z, d) for d in candidates))
    sums = (np.stack(errors) ** 2).sum(axis=2)
    tied = sums <= sums.min(axis=0) + _tie_tolerance(z)
    picked = tied.argmax(axis=0)
    coef = np.zeros((len(z), coefs[-1].shape[1]))
    for i, fit in enumerate(coefs):
        coef[picked == i, :fit.shape[1]] = fit[picked == i]
    return (np.asarray(candidates)[picked], coef,
            np.stack(full_rank)[picked, np.arange(len(z))], np.stack(folded).sum(axis=(1, 2)))


def neighbor_sets(idx: np.ndarray, n_train: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct neighbor sets of an (nq, k) index table into n_train records:
    the sets as sorted index rows (s, k) in lexicographic order, in the
    smallest unsigned dtype that holds n_train - 1, and each query's set
    number (nq,)."""
    keys = np.sort(idx.astype(np.min_scalar_type(n_train - 1), copy=False), axis=1)
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
    stats: dict | None = None,
):
    """Predictions and the per-query selected degree.

    The degree is selected once per distinct neighbor set, so queries that
    share a set share a degree. A query of degree >= 1 whose set's own fit
    at that degree has full rank is predicted by that fit. Every other query
    is refit through fit_polynomial centered on the query. So degree 0
    predicts through the same neighbor-mean reduction as uniform kNN, and
    the two agree bit for bit on identical neighborhoods. Sets are scored in
    leave-one-out stacks of FOLD_STACK_BYTES' worth, and results do not
    depend on that size. A ``stats`` dict, if given, receives the number of
    distinct sets as ``neighbor_sets`` and, per candidate degree, the
    number of leave-one-out rows that took their own fold fit as
    ``loo_fold_fits`` and of queries refit through fit_polynomial as
    ``query_refits`` (from degree 1 up, the queries of rank-deficient sets),
    and the search's ``candidate_pairs`` and ``tie_resorts``.
    """
    z = train.require_targets()
    train_f = space.features(train)
    query_f = space.features(queries)
    # the indices alone, in the dtype neighbor_sets keys them by
    index_dtype = np.min_scalar_type(len(train) - 1)
    idx = neighbor_search(train_f, query_f, cfg.k,
                          reduce=lambda indices, _: indices.astype(index_dtype), stats=stats)
    candidates = admissible_degrees(space.nvars, cfg.k, cfg.max_degree)
    fold_bytes = 8 * cfg.k * (cfg.k - 1) * monomial_count(space.nvars, candidates[-1])
    chunk = max(1, FOLD_STACK_BYTES // fold_bytes)

    sets, inverse = neighbor_sets(idx, len(train))
    set_degrees = np.empty(len(sets), dtype=np.int64)
    set_coef = np.empty((len(sets), monomial_count(space.nvars, candidates[-1])))
    set_full_rank = np.empty(len(sets), dtype=bool)
    centroids = np.empty((len(sets), space.nvars))
    fold_fits = np.zeros(len(candidates), dtype=np.int64)
    for start in range(0, len(sets), chunk):
        part = slice(start, start + chunk)
        feats = train_f[sets[part]]
        centroids[part] = feats.mean(axis=1)
        set_degrees[part], set_coef[part], set_full_rank[part], fits = _select_degrees(
            feats - centroids[part][:, None, :], z[sets[part]], candidates)
        fold_fits += fits
    degrees = set_degrees[inverse]
    # degree 0 keeps the neighbor mean in distance order; a rank-deficient
    # set's minimum-norm fit depends on the centre, so its queries refit
    refit = (degrees == 0) | ~set_full_rank[inverse]
    if stats is not None:
        stats["neighbor_sets"] = len(sets)
        stats["loo_fold_fits"] = {d: int(n) for d, n in zip(candidates, fold_fits)}
        stats["query_refits"] = {d: int(np.count_nonzero(refit[degrees == d]))
                                 for d in candidates}

    predictions = np.empty(len(queries))
    # a refit stack (c, k, m) of FOLD_STACK_BYTES holds k - 1 times as many
    # queries as the chunk holds sets
    step = chunk * (cfg.k - 1)
    for d in candidates:
        of_degree = degrees == d
        for sel in _runs(of_degree & refit, step):
            centered = train_f[idx[sel]] - query_f[sel][:, None, :]
            predictions[sel] = fit_polynomial(centered, z[idx[sel]], d)[:, 0]
        exps = monomial_exponents(space.nvars, d)
        for sel in _runs(of_degree & ~refit, step):
            of_set = inverse[sel]
            x = design_matrix(query_f[sel] - centroids[of_set], exps)
            predictions[sel] = np.einsum("qm,qm->q", x, set_coef[of_set, :len(exps)])
    return predictions, degrees


def _runs(mask: np.ndarray, step: int):
    """The indices where mask holds, in ascending runs of at most step."""
    where = np.flatnonzero(mask)
    return (where[start:start + step] for start in range(0, len(where), step))


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
