from contextlib import contextmanager

import numpy as np
import pytest

from finegrid import (
    FeatureSpace,
    KnnConfig,
    PointTable,
    UsageError,
    knn_predict,
    neighbor_search,
)

from finegrid.models import features
from finegrid.models.knn import neighbor_mean

from conftest import random_table


def points(lon, lat, z, covs=None):
    n = len(lon)
    c = np.zeros((n, 0)) if covs is None else np.asarray(covs, dtype=float)
    return PointTable(lon, lat, z, c)


def brute_force_knn(train_f, query_f, k):
    """Reference search: full distance matrix plus lexicographic tie-break."""
    out_i = np.empty((len(query_f), k), dtype=np.int64)
    out_d = np.empty((len(query_f), k))
    for qi, q in enumerate(query_f):
        diff = q[None, :] - train_f
        d2 = (diff * diff).sum(axis=1)
        order = sorted(range(len(train_f)), key=lambda i: (d2[i], i))[:k]
        out_i[qi] = order
        out_d[qi] = np.sqrt(d2[order])
    return out_i, out_d


@contextmanager
def search_tile(size):
    """Search in tiles of exactly ``size`` queries, whatever the training
    count; None keeps the module's budgets."""
    with pytest.MonkeyPatch.context() as patch:
        if size is not None:
            patch.setattr(features, "SEARCH_TILE_MIN", size)
            patch.setattr(features, "SEARCH_TILE_PAIRS", 0)
        yield


class TestNeighborSearch:
    def test_matches_brute_force_bitwise(self, rng):
        for _ in range(10):
            train_f = rng.normal(0, 1, (int(rng.integers(5, 60)), 3))
            query_f = rng.normal(0, 1, (20, 3))
            k = int(rng.integers(1, len(train_f) + 1))
            idx, dist = neighbor_search(train_f, query_f, k)
            bidx, bdist = brute_force_knn(train_f, query_f, k)
            np.testing.assert_array_equal(idx, bidx)
            np.testing.assert_array_equal(dist, bdist)

    def test_chunking_invariance(self, rng):
        train_f = rng.normal(0, 1, (40, 2))
        query_f = rng.normal(0, 1, (30, 2))
        with search_tile(7):
            a = neighbor_search(train_f, query_f, 5)
        with search_tile(1024):
            b = neighbor_search(train_f, query_f, 5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("size", [1, 7, None])
    def test_tile_follows_budgets(self, rng, size, monkeypatch):
        tiles, tile_order = [], features._tile_order

        def recorded(cols, tile):
            tiles.append(tile)
            return tile_order(cols, tile)

        monkeypatch.setattr(features, "_tile_order", recorded)
        train_f = rng.normal(0, 1, (40, 2))
        with search_tile(size):
            neighbor_search(train_f, train_f, 3)
        assert tiles == [size or max(features.SEARCH_TILE_MIN, features.SEARCH_TILE_PAIRS // 40)]

    def test_lattice_with_gaps_matches_brute_force_bitwise(self, rng):
        # coarse-cell centroids with 20 % gaps as training, fine-cell centres
        # as queries: many training points, so tiles prune, and every
        # coordinate is a multiple of 0.25, so distance ties are exact
        cx, cy = np.meshgrid(np.arange(24) + 0.5, np.arange(24) + 0.5)
        keep = rng.random(cx.size) >= 0.2
        train_f = np.column_stack([cx.ravel()[keep], cy.ravel()[keep]]) - 12.0
        fx, fy = np.meshgrid(np.arange(48) / 2 + 0.25, np.arange(48) / 2 + 0.25)
        query_f = np.column_stack([fx.ravel(), fy.ravel()]) - 12.0
        k = 12
        bidx, bdist = brute_force_knn(train_f, query_f, k + 1)
        assert len(train_f) > 400
        assert (bdist[:, k - 1] == bdist[:, k]).any()  # ties straddle the k-th
        for size in (1, 7, None):
            with search_tile(size):
                idx, dist = neighbor_search(train_f, query_f, k)
            np.testing.assert_array_equal(idx, bidx[:, :k])
            np.testing.assert_array_equal(dist, bdist[:, :k])

    def test_rounded_covariates_with_duplicates_match_brute_force(self, rng):
        for dim in range(3, 7):
            train_f = np.round(rng.normal(0, 1, (300, dim)) * 2) / 2
            query_f = np.round(rng.normal(0, 1, (150, dim)) * 2) / 2
            query_f[:20] = train_f[rng.integers(0, 300, 20)]
            k = int(rng.integers(1, 40))
            idx, dist = neighbor_search(train_f, query_f, k)
            bidx, bdist = brute_force_knn(train_f, query_f, k)
            np.testing.assert_array_equal(idx, bidx)
            np.testing.assert_array_equal(dist, bdist)

    def test_edge_shapes(self, rng):
        train_f = rng.normal(0, 1, (30, 2))
        query_f = rng.normal(0, 1, (200, 2))
        for q in (query_f, query_f[:1]):
            with search_tile(16):
                idx, dist = neighbor_search(train_f, q, 30)
            bidx, bdist = brute_force_knn(train_f, q, 30)
            np.testing.assert_array_equal(idx, bidx)
            np.testing.assert_array_equal(dist, bdist)
        idx, dist = neighbor_search(train_f, query_f[:0], 4)
        assert idx.shape == (0, 4) and dist.shape == (0, 4)

    def test_duplicate_training_rows_tie_break(self):
        train_f = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
        idx, _ = neighbor_search(train_f, np.array([[0.0, 0.0]]), 3)
        np.testing.assert_array_equal(idx[0], [1, 2, 0])

    def test_k_out_of_range(self, rng):
        train_f = rng.normal(0, 1, (5, 2))
        with pytest.raises(UsageError):
            neighbor_search(train_f, train_f, 6)
        with pytest.raises(UsageError):
            neighbor_search(train_f, train_f, 0)


class TestKnnPredict:
    def test_three_point_average(self):
        train = points([0.0, 0.1, 0.2, 5.0], [0.0, 0.0, 0.0, 5.0],
                       [0.1, 0.2, 0.3, 9.0])
        space = FeatureSpace.fit("coords", train)
        pred = knn_predict(train, points([0.1], [0.01], [np.nan]),
                           KnnConfig(k=3), space)
        assert pred[0] == pytest.approx(0.2, abs=1e-15)

    def test_k1_recovers_training_targets(self, rng):
        train = random_table(rng, 30, 0)
        train = train.with_target(rng.random(30))
        space = FeatureSpace.fit("coords", train)
        pred = knn_predict(train, train, KnnConfig(k=1), space)
        np.testing.assert_array_equal(pred, train.target)

    def test_matches_mean_oracle(self, rng):
        train = random_table(rng, 50, 2).with_target(rng.random(50))
        queries = random_table(rng, 25, 2)
        for mode in ("coords", "covariates", "coords+covariates"):
            space = FeatureSpace.fit(mode, train)
            k = 7
            pred = knn_predict(train, queries, KnnConfig(k=k), space)
            idx, _ = brute_force_knn(space.features(train), space.features(queries), k)
            expect = train.target[idx].mean(axis=1)
            np.testing.assert_allclose(pred, expect, atol=1e-12)

    def test_neighbor_mean_rows_match_single_row_bitwise(self, rng):
        # the degree-0 HYPPO path reduces a row subset, knn the whole block
        for k in range(1, 41):
            block = rng.random((9, k)) * 10.0 ** rng.integers(-3, 4)
            rows = neighbor_mean(block)
            for i in range(9):
                assert rows[i] == neighbor_mean(block[i]) == np.mean(block[i])

    def test_training_permutation_invariance(self, rng):
        # distinct pairwise distances so the k-set is permutation independent
        lon = np.arange(20) * 0.13
        lat = lon * 0.7 + 0.01 * np.arange(20) ** 2
        z = rng.random(20)
        train = points(lon, lat, z)
        queries = points(rng.uniform(0, 2, 10), rng.uniform(0, 2, 10),
                         np.full(10, np.nan))
        space = FeatureSpace.fit("coords", train)
        base = knn_predict(train, queries, KnnConfig(k=4), space)
        perm = rng.permutation(20)
        shuffled = points(lon[perm], lat[perm], z[perm])
        again = knn_predict(shuffled, queries, KnnConfig(k=4), space)
        np.testing.assert_allclose(again, base, atol=1e-12)

    def test_inverse_distance_prefers_closer(self):
        train = points([0.0, 1.0], [0.0, 0.0], [0.0, 1.0])
        space = FeatureSpace(mode="coords", means=np.zeros(2), stdevs=np.ones(2))
        query = points([0.25], [0.0], [np.nan])
        uniform = knn_predict(train, query, KnnConfig(2, "uniform"), space)
        weighted = knn_predict(train, query, KnnConfig(2, "inverse-distance"), space)
        assert uniform[0] == pytest.approx(0.5)
        # closer point has target 0, so the weighted value drops below 0.5
        assert weighted[0] < 0.5
        expect = (1 / 0.25 * 0.0 + 1 / 0.75 * 1.0) / (1 / 0.25 + 1 / 0.75)
        assert weighted[0] == pytest.approx(expect, abs=1e-12)

    def test_inverse_distance_coincident_point_dominates(self):
        train = points([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.4, 0.9, 0.7])
        space = FeatureSpace(mode="coords", means=np.zeros(2), stdevs=np.ones(2))
        query = points([0.0], [0.0], [np.nan])
        pred = knn_predict(train, query, KnnConfig(3, "inverse-distance"), space)
        # d = 0 floors at 1e-12, giving weight 1e12 versus O(1) for the rest
        assert pred[0] == pytest.approx(0.4, abs=1e-9)

    def test_k_exceeding_train_size(self, rng):
        train = random_table(rng, 5, 0).with_target(rng.random(5))
        space = FeatureSpace.fit("coords", train)
        with pytest.raises(UsageError):
            knn_predict(train, train, KnnConfig(k=6), space)

    def test_missing_targets_rejected(self, rng):
        train = points(rng.uniform(0, 1, 5), rng.uniform(0, 1, 5),
                       [0.1, np.nan, 0.3, 0.4, 0.5])
        space = FeatureSpace.fit("coords", train)
        with pytest.raises(UsageError):
            knn_predict(train, train, KnnConfig(k=2), space)

    def test_k_equals_n_is_global_mean(self, rng):
        train = random_table(rng, 12, 0).with_target(rng.random(12))
        space = FeatureSpace.fit("coords", train)
        pred = knn_predict(train, random_table(rng, 4, 0), KnnConfig(k=12), space)
        np.testing.assert_allclose(pred, train.target.mean(), atol=1e-12)


class TestFeatureSpace:
    def test_scaling_unit_variance(self, rng):
        train = random_table(rng, 100, 3)
        space = FeatureSpace.fit("coords+covariates", train)
        f = space.features(train)
        np.testing.assert_allclose(f.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(f.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_no_blowup(self):
        train = points([1.0, 1.0, 1.0], [0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
        space = FeatureSpace.fit("coords", train)
        f = space.features(train)
        assert np.isfinite(f).all()
        np.testing.assert_array_equal(f[:, 0], 0.0)

    def test_covariates_mode_requires_columns(self, rng):
        train = random_table(rng, 10, 0)
        with pytest.raises(UsageError):
            FeatureSpace.fit("covariates", train)

    def test_unknown_mode(self, rng):
        with pytest.raises(UsageError):
            FeatureSpace.fit("everything", random_table(rng, 10, 2))

    def test_non_finite_features_rejected(self, rng):
        train = random_table(rng, 10, 2)
        bad = train.covariates.copy()
        bad[3, 1] = np.nan
        bad[5, 0] = np.inf
        nan_table = PointTable(train.lon, train.lat, train.target, bad)
        with pytest.raises(UsageError, match=r"'covariates': 2 non-finite"):
            FeatureSpace.fit("covariates", nan_table)
        space = FeatureSpace.fit("coords+covariates", train)
        with pytest.raises(UsageError, match=r"'coords\+covariates': 2 non-finite"):
            space.features(nan_table)
        # coordinates are the only features in coords mode
        FeatureSpace.fit("coords", nan_table).features(nan_table)

    def test_width_mismatch(self, rng):
        space = FeatureSpace.fit("covariates", random_table(rng, 10, 3))
        with pytest.raises(UsageError):
            space.features(random_table(rng, 5, 2))
