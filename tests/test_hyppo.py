import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import finegrid.models.hyppo as hyppo
from finegrid import (
    FeatureSpace,
    HyppoConfig,
    KnnConfig,
    PointTable,
    UsageError,
    fit_polynomial,
    hyppo_predict,
    hyppo_predict_with_degrees,
    knn_predict,
)
from finegrid.models.hyppo import (
    TIE_REL,
    _loo_errors,
    _lstsq,
    _select_degrees,
    _tie_tolerance,
    admissible_degrees,
    design_matrix,
    monomial_count,
    monomial_exponents,
    neighbor_sets,
)
from finegrid.models.features import neighbor_search
from finegrid.models.knn import neighbor_mean

from conftest import search_tables


def points(lon, lat, z):
    n = len(lon)
    return PointTable(lon, lat, z, np.zeros((n, 0)))


def identity_space(nvars=2):
    return FeatureSpace(mode="coords", means=np.zeros(nvars), stdevs=np.ones(nvars))


@contextmanager
def fold_stack(cfg, space, sets):
    """Score neighbor sets in leave-one-out stacks of ``sets`` each; None
    keeps FOLD_STACK_BYTES."""
    with pytest.MonkeyPatch.context() as patch:
        if sets is not None:
            m = monomial_count(space.nvars, admissible_degrees(space.nvars, cfg.k,
                                                               cfg.max_degree)[-1])
            patch.setattr(hyppo, "FOLD_STACK_BYTES", sets * 8 * cfg.k * (cfg.k - 1) * m)
        yield


def lattice_case(rng, nq):
    """Training points on a regular 8 x 8 grid, as coarse-cell centroids are,
    under a smooth noisy field. With k = 12, many degree-3 leave-one-out
    folds and refits are rank-deficient."""
    g = (np.arange(8) + 0.5) / 8
    lon, lat = (a.ravel() for a in np.meshgrid(g, g))
    z = np.sin(3 * lon) * np.cos(2 * lat) + rng.normal(0, 0.01, lon.size)
    queries = points(rng.uniform(0.1, 0.9, nq), rng.uniform(0.1, 0.9, nq),
                     np.full(nq, np.nan))
    return points(lon, lat, z), queries


def gapped_lattice_case(rng, nq):
    """lattice_case with a fifth of the training points dropped, as gaps in
    the observed grid drop coarse cells."""
    train, queries = lattice_case(rng, nq)
    return train.subset(np.sort(rng.permutation(len(train))[:len(train) * 4 // 5])), queries


def scattered_case(rng, nq):
    train = points(rng.uniform(0, 1, 40), rng.uniform(0, 1, 40), rng.random(40))
    queries = points(rng.uniform(0, 1, nq), rng.uniform(0, 1, nq), np.full(nq, np.nan))
    return train, queries


def loo_oracle(features, targets, degree):
    """Independent leave-one-out error: refit with a pseudo-inverse per fold."""
    exps = monomial_exponents(features.shape[1], degree)
    total = 0.0
    for i in range(len(targets)):
        mask = np.arange(len(targets)) != i
        x = design_matrix(features[mask], exps)
        coef = np.linalg.pinv(x, rcond=1e-10) @ targets[mask]
        pred = design_matrix(features[i:i + 1], exps) @ coef
        total += (targets[i] - pred[0]) ** 2
    return total


def fold_stack_errors(feats, z, degree):
    """Leave-one-out errors with every fold of every set fit by _lstsq on one
    (c, k, k-1, m) stack of fold designs."""
    x = design_matrix(feats, monomial_exponents(feats.shape[2], degree))
    k = z.shape[1]
    rest = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)  # fold i drops row i
    coef = _lstsq(x[:, rest], z[:, rest])
    return z - np.einsum("ckm,ckm->ck", x, coef)


def set_stack(train, queries, k):
    """Every distinct neighbor set's features, centered on their centroid as
    degree selection sees them, (s, k, nvars), and its targets (s, k)."""
    space = FeatureSpace.fit("coords", train)
    idx, _ = search_tables(space.features(train), space.features(queries), k)
    sets = np.unique(np.sort(idx, axis=1), axis=0)
    feats = space.features(train)[sets]
    return feats - feats.mean(axis=1, keepdims=True), train.target[sets]


def hyppo_select_degree(features, targets, max_degree):
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
    return int(_select_degrees(feats[None], z[None], candidates)[0][0])


class TestMonomials:
    def test_count_formula_two_vars(self):
        # 2 variables: (d+1)(d+2)/2 monomials up to total degree d
        for d in range(6):
            assert monomial_count(2, d) == (d + 1) * (d + 2) // 2

    def test_count_matches_exponent_list(self, rng):
        for nvars in (1, 2, 3):
            for d in range(4):
                exps = monomial_exponents(nvars, d)
                assert len(exps) == monomial_count(nvars, d)
                assert exps[0] == (0,) * nvars
                assert all(sum(e) <= d for e in exps)
                assert len(set(exps)) == len(exps)

    def test_graded_order(self):
        totals = [sum(e) for e in monomial_exponents(2, 3)]
        assert totals == sorted(totals)

    def test_design_matrix_values(self):
        x = design_matrix(np.array([[2.0, 3.0]]), monomial_exponents(2, 2))
        np.testing.assert_allclose(x[0], [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])

    def test_admissible_degrees(self):
        # need monomial_count(2, d) <= k - 1: 1, 3, 6, 10 monomials
        assert admissible_degrees(2, 2, 3) == [0]
        assert admissible_degrees(2, 4, 3) == [0, 1]
        assert admissible_degrees(2, 7, 3) == [0, 1, 2]
        assert admissible_degrees(2, 11, 3) == [0, 1, 2, 3]
        assert admissible_degrees(2, 11, 1) == [0, 1]


def evaluate(coef, features, degree):
    """A fitted polynomial's values at features (n, nvars)."""
    return design_matrix(features, monomial_exponents(features.shape[1], degree)) @ coef


class TestFitPolynomial:
    def test_degree0_is_mean(self, rng):
        z = rng.random(9)
        coef = fit_polynomial(rng.normal(0, 1, (9, 2)), z, 0)
        assert coef.shape == (1,)
        assert coef[0] == float(np.mean(z))
        assert evaluate(coef, np.zeros((3, 2)), 0) == pytest.approx([np.mean(z)] * 3)

    def test_degree0_equals_neighbor_mean_bitwise(self, rng):
        z = rng.random((7, 12))
        coef = fit_polynomial(rng.normal(0, 1, (7, 12, 2)), z, 0)
        np.testing.assert_array_equal(coef[:, 0], neighbor_mean(z))
        assert coef.shape == (7, 1)

    def test_degree1_interpolates_three_points(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        z = np.array([1.0, 3.0, 2.0])  # plane 1 + 2x + y
        coef = fit_polynomial(feats, z, 1)
        np.testing.assert_allclose(coef, [1.0, 2.0, 1.0], atol=1e-12)
        assert evaluate(coef, np.array([[2.0, 2.0]]), 1)[0] == pytest.approx(7.0, abs=1e-10)

    def test_least_squares_optimality(self, rng):
        # residual orthogonal to the column space beats any perturbed fit
        feats = rng.normal(0, 1, (30, 2))
        z = rng.normal(0, 1, 30)
        coef = fit_polynomial(feats, z, 2)
        x = design_matrix(feats, monomial_exponents(2, 2))
        base = float(((x @ coef - z) ** 2).sum())
        expect = np.linalg.pinv(x, rcond=1e-10) @ z
        np.testing.assert_allclose(coef, expect, atol=1e-8)
        for _ in range(20):
            perturbed = coef + rng.normal(0, 1e-3, len(coef))
            assert float(((x @ perturbed - z) ** 2).sum()) >= base - 1e-12

    def test_stack_equals_per_set_fits_bitwise(self, rng):
        # full-rank and collinear sets in one stack, as lattice refits mix them
        feats = rng.normal(0, 1, (6, 12, 2))
        feats[2, :, 1] = feats[2, :, 0]
        feats[4, :, :] = np.repeat(np.arange(4.0), 3)[:, None] * [1.0, 0.0]
        z = rng.normal(0, 1, (6, 12))
        for degree in range(4):
            coef = fit_polynomial(feats, z, degree)
            assert coef.shape == (6, monomial_count(2, degree))
            for i in range(6):
                np.testing.assert_array_equal(coef[i], fit_polynomial(feats[i], z[i], degree))

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            fit_polynomial(np.zeros((0, 2)), np.zeros(0), 1)


class TestSelectDegree:
    def test_constant_data_picks_zero(self, rng):
        feats = rng.normal(0, 1, (10, 2))
        assert hyppo_select_degree(feats, np.full(10, 0.37), 3) == 0

    def test_linear_data_picks_one(self, rng):
        feats = rng.normal(0, 1, (12, 2))
        z = 2.0 * feats[:, 0] + 3.0 * feats[:, 1] + 0.5
        assert hyppo_select_degree(feats, z, 3) == 1

    def test_quadratic_data_picks_two(self, rng):
        feats = rng.normal(0, 1, (20, 2))
        z = feats[:, 0] ** 2 + feats[:, 1] ** 2 - feats[:, 0] * feats[:, 1]
        assert hyppo_select_degree(feats, z, 3) == 2

    def test_matches_brute_force_oracle(self, rng):
        # replicate selection (including the tie rule) from the oracle errors
        for _ in range(15):
            k = int(rng.integers(4, 16))
            feats = rng.normal(0, 1, (k, 2))
            z = rng.normal(0.2, 0.1, k)
            max_degree = 3
            degrees = admissible_degrees(2, k, max_degree)
            errors = [loo_oracle(feats, z, d) for d in degrees]
            tol = TIE_REL * (1.0 + float(np.mean(z * z)))
            best = min(errors)
            expect = next(d for d, e in zip(degrees, errors) if e <= best + tol)
            assert hyppo_select_degree(feats, z, max_degree) == expect

    def test_tie_goes_to_lower_degree(self):
        # exactly-linear data: degrees 1..3 all reach ~zero error, pick 1
        feats = np.array([[float(i % 4), float(i // 4)] for i in range(12)])
        z = 1.0 + 0.5 * feats[:, 0] - 0.25 * feats[:, 1]
        assert hyppo_select_degree(feats, z, 3) == 1

    def test_tiny_k_restricts_candidates(self, rng):
        feats = rng.normal(0, 1, (3, 2))
        z = rng.normal(0, 1, 3)
        # k = 3 leaves only degree 0 admissible in two variables
        assert hyppo_select_degree(feats, z, 3) == 0

    def test_k_below_two_rejected(self, rng):
        with pytest.raises(UsageError):
            hyppo_select_degree(np.zeros((1, 2)), np.zeros(1), 2)


class TestLooErrors:
    def test_matches_oracle(self, rng):
        for _ in range(3):
            for (train, queries), k in ((lattice_case(rng, 40), 12),
                                        (scattered_case(rng, 40), 11)):
                feats, z = set_stack(train, queries, k)
                for degree in (0, 1, 2, 3):
                    errors = _loo_errors(feats, z, degree)[0]
                    expect = [loo_oracle(f, t, degree) for f, t in zip(feats, z)]
                    np.testing.assert_allclose((errors ** 2).sum(axis=1), expect,
                                               rtol=1e-9, atol=0)

    def test_set_full_rank(self):
        # collinear points cannot pin down a full degree-1 basis; their
        # minimum-norm fit still interpolates them
        feats = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]])
        z = np.array([[0.0, 1.0, 2.0, 3.0]])
        _, _, coef, full_rank = _loo_errors(feats, z, 1)
        np.testing.assert_array_equal(full_rank, [False])
        np.testing.assert_allclose(evaluate(coef[0], feats[0], 1), z[0], atol=1e-10)
        # a triangle does, and every set has full rank at degree 0
        triangle = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        np.testing.assert_array_equal(
            _loo_errors(triangle, np.array([[1.0, 2.0, 3.0]]), 1)[3], [True])
        np.testing.assert_array_equal(_loo_errors(feats, z, 0)[3], [True])

    def test_lattice_fold_fits_match_fold_stack_bitwise(self, rng):
        # a lattice point that alone supports a degree-3 monomial has
        # leverage 1; its error comes from its own fold fit, the same
        # matrix and solver as a full stack of folds
        train, queries = lattice_case(rng, 200)
        stats = {}
        hyppo_predict_with_degrees(train, queries, HyppoConfig(k=12, max_degree=3),
                                   FeatureSpace.fit("coords", train), stats=stats)
        assert stats["hyppo_loo_fold_fits"][3] > 0
        assert stats["hyppo_loo_fold_fits"][0] == 0
        feats, z = set_stack(train, queries, 12)
        fits = {}
        for degree in (1, 2, 3):
            errors, folded, _, _ = _loo_errors(feats, z, degree)
            fits[degree] = int(folded.sum())
            np.testing.assert_array_equal(errors[folded],
                                          fold_stack_errors(feats, z, degree)[folded])
        assert fits == {d: stats["hyppo_loo_fold_fits"][d] for d in (1, 2, 3)}

    def test_scattered_needs_no_fold_fit(self, rng):
        # points in general position, with k = 14 well above degree 3's ten
        # monomials, keep every leverage far from 1
        train, queries = scattered_case(rng, 200)
        stats = {}
        hyppo_predict_with_degrees(train, queries, HyppoConfig(k=14, max_degree=3),
                                   FeatureSpace.fit("coords", train), stats=stats)
        assert stats["hyppo_loo_fold_fits"] == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_fold_lstsq_called_only_with_rows(self, rng, monkeypatch):
        # no call on an empty stack: the scattered sets at k 14 need no fold
        # fit, the lattice sets need some at degree 3
        calls = []

        def counted(x, z):
            calls.append(len(x))
            return _lstsq(x, z)

        monkeypatch.setattr(hyppo, "_lstsq", counted)
        for (train, queries), k, expect in ((scattered_case(rng, 200), 14, 0),
                                            (lattice_case(rng, 200), 12, 1)):
            feats, z = set_stack(train, queries, k)
            calls.clear()
            folded = [_loo_errors(feats, z, degree)[1].sum() for degree in (1, 2, 3)]
            assert len(calls) == np.count_nonzero(folded) == expect
            assert calls == [n for n in folded if n]


class TestTieTolerance:
    def test_scales_with_magnitude(self):
        small = _tie_tolerance(np.array([1e-3, 1e-3]))
        large = _tie_tolerance(np.array([1e3, 1e3]))
        assert small == pytest.approx(TIE_REL, rel=1e-5)
        assert large == pytest.approx(TIE_REL * (1 + 1e6), rel=1e-12)


class TestHyppoPredict:
    def test_constant_field(self, rng):
        train = points(rng.uniform(0, 1, 20), rng.uniform(0, 1, 20),
                       np.full(20, 0.3))
        space = FeatureSpace.fit("coords", train)
        queries = points(rng.uniform(0, 1, 8), rng.uniform(0, 1, 8),
                         np.full(8, np.nan))
        pred, deg = hyppo_predict_with_degrees(train, queries, HyppoConfig(k=8), space)
        np.testing.assert_allclose(pred, 0.3, atol=1e-12)
        np.testing.assert_array_equal(deg, 0)

    def test_no_query(self, rng):
        train = points(rng.uniform(0, 1, 40), rng.uniform(0, 1, 40), rng.uniform(0, 1, 40))
        cfg = HyppoConfig(k=12, max_degree=3)
        stats = {}
        pred, deg = hyppo_predict_with_degrees(train, points([], [], []), cfg,
                                               FeatureSpace.fit("coords", train), stats=stats)
        assert pred.shape == (0,) and pred.dtype == np.float64
        assert deg.shape == (0,) and deg.dtype == np.int64
        zeros = {d: 0 for d in range(4)}
        assert stats == {"search_candidate_pairs": 0, "search_tie_resorts": 0,
                         "hyppo_neighbor_sets": 0, "hyppo_degree_counts": {},
                         "hyppo_loo_fold_fits": zeros, "hyppo_query_refits": zeros}

    def test_linear_field_exact(self, rng):
        lon = rng.uniform(0, 2, 40)
        lat = rng.uniform(0, 2, 40)
        train = points(lon, lat, 0.1 + 0.2 * lon + 0.05 * lat)
        space = FeatureSpace.fit("coords", train)
        qlon = rng.uniform(0.2, 1.8, 10)
        qlat = rng.uniform(0.2, 1.8, 10)
        queries = points(qlon, qlat, np.full(10, np.nan))
        pred = hyppo_predict(train, queries, HyppoConfig(k=10), space)
        np.testing.assert_allclose(pred, 0.1 + 0.2 * qlon + 0.05 * qlat, atol=1e-9)

    def test_matches_per_query_oracle(self, rng):
        # naive per-query pipeline: search, select via oracle LOO on the
        # neighborhood centered on its centroid, then the centroid-centered
        # pinv fit evaluated at the query, or a pinv refit centered on the
        # query at degree 0 or where the centroid-centered design is
        # rank-deficient; the lattice case adds rank-deficient folds and sets
        train_lon = rng.uniform(0, 1, 30)
        train_lat = rng.uniform(0, 1, 30)
        z = np.sin(3 * train_lon) * np.cos(2 * train_lat)
        scattered = (points(train_lon, train_lat, z),
                     points(rng.uniform(0.1, 0.9, 6), rng.uniform(0.1, 0.9, 6),
                            np.full(6, np.nan)), 9)
        lattice = (*lattice_case(rng, 24), 12)
        max_degree = 3
        refit_degrees = []
        for train, queries, k in (scattered, lattice):
            z = train.target
            space = FeatureSpace.fit("coords", train)
            pred, deg = hyppo_predict_with_degrees(
                train, queries, HyppoConfig(k=k, max_degree=max_degree), space)

            train_f = space.features(train)
            query_f = space.features(queries)
            for qi in range(len(queries)):
                diff = train_f - query_f[qi]
                order = np.argsort((diff * diff).sum(axis=1), kind="stable")[:k]
                centroid = train_f[order].mean(axis=0)
                nz = z[order]
                degrees = admissible_degrees(2, k, max_degree)
                errors = [loo_oracle(train_f[order] - centroid, nz, d) for d in degrees]
                tol = TIE_REL * (1.0 + float(np.mean(nz * nz)))
                d = next(dd for dd, e in zip(degrees, errors) if e <= min(errors) + tol)
                assert deg[qi] == d
                exps = monomial_exponents(2, d)
                x = design_matrix(train_f[order] - centroid, exps)
                sv = np.linalg.svd(x, compute_uv=False)
                if d == 0:
                    expect = float(np.mean(nz))
                elif (sv > 1e-10 * sv.max()).sum() < len(exps):
                    x = design_matrix(train_f[order] - query_f[qi], exps)
                    expect = (np.linalg.pinv(x, rcond=1e-10) @ nz)[0]
                    refit_degrees.append(d)
                else:
                    at_query = design_matrix((query_f[qi] - centroid)[None], exps)[0]
                    expect = at_query @ np.linalg.pinv(x, rcond=1e-10) @ nz
                assert pred[qi] == pytest.approx(expect, abs=1e-8)
        assert 3 in refit_degrees

    def test_refits_degree0_and_rank_deficient_sets_only(self, rng, monkeypatch):
        # the wrapper hands back OFFSET plus each stack slot's number as the
        # constant term, far outside any prediction here, so the predictions
        # name the slot that refit each query and leave the others unchanged
        OFFSET = 1e9
        original = hyppo.fit_polynomial
        slots = []

        def numbered(features, targets, degree):
            coef = original(features, targets, degree)
            numbers = OFFSET + len(slots) + np.arange(len(coef))
            slots.extend((int(degree), c) for c in coef[:, 0])
            return np.column_stack([numbers, coef[:, 1:]])

        cases = [(lattice_case(rng, 60), 12), (gapped_lattice_case(rng, 60), 12)]
        cases += [(scattered_case(rng, 60), k) for k in (8, 11, 14)]
        seen, set_path, deficient_refits = set(), 0, 0
        for (train, queries), k in cases:
            space = FeatureSpace.fit("coords", train)
            cfg = HyppoConfig(k=k, max_degree=3)
            stats = {}
            with fold_stack(cfg, space, 2):
                pred, deg = hyppo_predict_with_degrees(train, queries, cfg, space, stats=stats)
                monkeypatch.setattr(hyppo, "fit_polynomial", numbered)
                slots.clear()
                named, named_deg = hyppo_predict_with_degrees(train, queries, cfg, space)
                monkeypatch.setattr(hyppo, "fit_polynomial", original)
            np.testing.assert_array_equal(named_deg, deg)

            train_f, query_f = space.features(train), space.features(queries)
            idx, _ = search_tables(train_f, query_f, k)
            refit = named >= OFFSET
            assert sorted(named[refit] - OFFSET) == list(range(len(slots)))
            for q in range(len(queries)):
                exps = monomial_exponents(2, deg[q])
                members = train_f[np.sort(idx[q])]
                x = design_matrix(members - members.mean(axis=0), exps)
                sv = np.linalg.svd(x, compute_uv=False)
                set_full_rank = (sv > 1e-10 * sv.max()).sum() == len(exps)
                assert refit[q] == (deg[q] == 0 or not set_full_rank)
                if refit[q]:
                    assert slots[int(named[q] - OFFSET)] == (deg[q], pred[q])
                    deficient_refits += bool(deg[q])
                    continue
                assert named[q] == pred[q]
                # the set's fit against the query-centered pinv refit
                x = design_matrix(train_f[idx[q]] - query_f[q], exps)
                expect = (np.linalg.pinv(x, rcond=1e-10) @ train.target[idx[q]])[0]
                assert abs(pred[q] - expect) <= 1e-12
                set_path += 1
            assert stats["hyppo_query_refits"] == {d: int(np.count_nonzero(refit[deg == d]))
                                                   for d in admissible_degrees(2, k, 3)}
            seen.update(deg.tolist())
        assert seen == {0, 1, 2, 3}
        assert set_path > 0 and deficient_refits > 0

    def test_max_degree_zero_matches_knn_bitwise(self, rng):
        train = points(rng.uniform(0, 1, 25), rng.uniform(0, 1, 25),
                       rng.random(25))
        space = FeatureSpace.fit("coords", train)
        queries = points(rng.uniform(0, 1, 12), rng.uniform(0, 1, 12),
                         np.full(12, np.nan))
        k = 6
        a = hyppo_predict(train, queries, HyppoConfig(k=k, max_degree=0), space)
        b = knn_predict(train, queries, KnnConfig(k=k), space)
        np.testing.assert_array_equal(a, b)

    def test_target_range_clamps(self, rng):
        # steep plane extrapolated outside the hull overshoots [0, 1]
        lon = rng.uniform(0, 1, 15)
        lat = rng.uniform(0, 1, 15)
        train = points(lon, lat, np.clip(2.0 * lon, 0, None))
        space = FeatureSpace.fit("coords", train)
        queries = points([3.0], [0.5], [np.nan])
        raw = hyppo_predict(train, queries, HyppoConfig(k=15), space)
        clamped = hyppo_predict(train, queries, HyppoConfig(k=15), space,
                                target_range=(0.0, 1.0))
        assert raw[0] > 1.0
        assert clamped[0] == 1.0

    def test_chunking_invariance(self, rng, monkeypatch):
        stacks, select = [], hyppo._select_degrees

        def recorded(feats, z, candidates):
            stacks.append(len(z))
            return select(feats, z, candidates)

        monkeypatch.setattr(hyppo, "_select_degrees", recorded)
        train = points(rng.uniform(0, 1, 40), rng.uniform(0, 1, 40),
                       rng.random(40))
        queries = points(rng.uniform(0, 1, 23), rng.uniform(0, 1, 23),
                         np.full(23, np.nan))
        lattice = lattice_case(rng, 23)
        # sets of full rank, predicted by their own fit, and rank-deficient
        # sets, whose queries refit, at one degree
        mixed = gapped_lattice_case(rng, 120)
        for (train, queries), cfg in (((train, queries), HyppoConfig(k=8)),
                                      (lattice, HyppoConfig(k=12, max_degree=3)),
                                      (mixed, HyppoConfig(k=12, max_degree=3))):
            space = FeatureSpace.fit("coords", train)
            runs, refits = [], []
            for sets in (1, 5, None):
                stacks.clear()
                refits.append({})
                with fold_stack(cfg, space, sets):
                    runs.append(hyppo_predict_with_degrees(train, queries, cfg, space,
                                                           stats=refits[-1]))
                if sets:
                    assert max(stacks) == sets
            for run, stats in zip(runs[1:], refits[1:]):
                for a, b in zip(runs[0], run):
                    np.testing.assert_array_equal(a, b)
                assert stats["hyppo_query_refits"] == refits[0]["hyppo_query_refits"]
        degrees = runs[0][1]
        assert 0 < refits[0]["hyppo_query_refits"][3] < np.count_nonzero(degrees == 3)

    def test_shared_neighbor_set_shares_degree(self, rng):
        train, queries = lattice_case(rng, 300)
        space = FeatureSpace.fit("coords", train)
        _, deg = hyppo_predict_with_degrees(train, queries, HyppoConfig(k=12), space)
        idx, _ = search_tables(space.features(train), space.features(queries), 12)
        by_set = {}
        for row, d in zip(np.sort(idx, axis=1), deg):
            by_set.setdefault(tuple(row), set()).add(int(d))
        assert len(by_set) < len(queries)
        assert all(len(ds) == 1 for ds in by_set.values())
        assert len(set().union(*by_set.values())) > 1

    def test_query_permutation_permutes_outputs(self, rng):
        for (train, queries), k in ((lattice_case(rng, 60), 12), (scattered_case(rng, 60), 8)):
            space = FeatureSpace.fit("coords", train)
            cfg = HyppoConfig(k=k, max_degree=3)
            base = hyppo_predict_with_degrees(train, queries, cfg, space)
            for perm in (np.arange(len(queries))[::-1], rng.permutation(len(queries))):
                moved = hyppo_predict_with_degrees(train, queries.subset(perm), cfg, space)
                for a, b in zip(base, moved):
                    np.testing.assert_array_equal(a[perm], b)

    def test_neighbor_set_count_matches_brute_force(self, rng):
        for (train, queries), k in ((lattice_case(rng, 200), 12), (scattered_case(rng, 200), 8)):
            space = FeatureSpace.fit("coords", train)
            stats = {}
            hyppo_predict_with_degrees(train, queries, HyppoConfig(k=k), space, stats=stats)
            idx, _ = search_tables(space.features(train), space.features(queries), k)
            assert stats["hyppo_neighbor_sets"] == len({tuple(sorted(row))
                                                        for row in idx.tolist()})

    def test_search_keeps_only_small_indices(self, monkeypatch):
        # 400 coarse lattice centroids, 224 x 224 fine queries: the whole
        # int64 indices and distances the search once kept were 3.0 (nq, k)
        # float64 arrays at peak
        k = 12
        cx, cy = (a.ravel() + 0.5 for a in np.meshgrid(np.arange(20.0), np.arange(20.0)))
        fx, fy = (a.ravel() for a in np.meshgrid((np.arange(224) + 0.5) * 20 / 224,
                                                 (np.arange(224) + 0.5) * 20 / 224))
        train = points(cx, cy, np.sin(cx) + cy ** 2 / 50)
        queries = points(fx, fy, np.full(fx.size, np.nan))
        space = FeatureSpace.fit("coords", train)
        found = []

        def search(*args, **kwargs):
            found.append(neighbor_search(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(hyppo, "neighbor_search", search)
        tracemalloc.start()
        try:
            hyppo_predict_with_degrees(train, queries, HyppoConfig(k, max_degree=1), space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(queries) * k * 8
        (idx,) = found
        assert idx.dtype == np.uint16
        np.testing.assert_array_equal(
            idx, search_tables(space.features(train), space.features(queries), k)[0])

    def test_neighbor_sets_match_numpy_unique(self, rng):
        base = np.stack([rng.choice(300, 5, replace=False) for _ in range(200)])
        # every set twice, the second time in another row and column order
        shuffled = np.take_along_axis(base, rng.random(base.shape).argsort(axis=1), axis=1)
        idx = np.concatenate([base, shuffled[rng.permutation(200)]])
        sets, inverse = neighbor_sets(idx, 300)
        expect, expect_inverse = np.unique(np.sort(idx, axis=1), axis=0, return_inverse=True)
        assert sets.dtype == np.uint16
        np.testing.assert_array_equal(sets, expect)
        np.testing.assert_array_equal(inverse, expect_inverse.reshape(-1))
        np.testing.assert_array_equal(sets[inverse], np.sort(idx, axis=1))

    def test_k_exceeding_train_size(self, rng):
        train = points(rng.uniform(0, 1, 5), rng.uniform(0, 1, 5), rng.random(5))
        space = FeatureSpace.fit("coords", train)
        with pytest.raises(UsageError):
            hyppo_predict(train, train, HyppoConfig(k=6), space)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            HyppoConfig(k=1)
        with pytest.raises(UsageError):
            HyppoConfig(k=5, max_degree=-1)
