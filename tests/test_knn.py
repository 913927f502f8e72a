import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finegrid import (
    FeatureSpace,
    KnnConfig,
    PointTable,
    UsageError,
    knn_predict,
    neighbor_search,
)

from finegrid.models import features
from finegrid.models.knn import DISTANCE_EPS, WEIGHTINGS, neighbor_mean

from conftest import random_table, search_tables


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


def feature_ordered_d2(query_f, train_f):
    """Squared distances (nq, n), the squared differences added one feature
    at a time in feature order."""
    d2 = np.zeros((len(query_f), len(train_f)))
    for f in range(query_f.shape[1]):
        diff = query_f[:, f, None] - train_f[None, :, f]
        d2 += diff * diff
    return d2


def feature_ordered_knn(train_f, query_f, k):
    """Reference search at any width: feature-ordered squared distances plus
    the lexicographic tie-break of brute_force_knn."""
    d2 = feature_ordered_d2(query_f, train_f)
    out_i = np.array([sorted(range(len(train_f)), key=lambda i: (row[i], i))[:k] for row in d2],
                     dtype=np.int64).reshape(len(query_f), k)
    return out_i, np.sqrt(np.take_along_axis(d2, out_i, axis=1))


def tile_order_int64_ref(cols, tile):
    """The tile order as built from int64 bins and keys, kept as the oracle
    of _tile_order's uint16 key."""
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


def feature_cases(rng, dim, nq=120, n=90):
    """(train, query) pairs at one width: standard normal, half-integer with
    duplicated rows (exact distance ties), and duplicates of training rows."""
    train_f, query_f = rng.normal(0, 1, (n, dim)), rng.normal(0, 1, (nq, dim))
    yield train_f, query_f
    rounded_t, rounded_q = np.round(train_f * 2) / 2, np.round(query_f * 2) / 2
    rounded_t[n // 2:] = rounded_t[:n - n // 2]
    yield rounded_t, rounded_q
    on_train = query_f.copy()
    on_train[:30] = train_f[rng.integers(0, n, 30)]
    yield train_f, on_train


def knn_whole_tables(z, train_f, query_f, k, weighting):
    """knn's reduction, by the same expressions, over the whole (nq, k)
    tables of one search."""
    idx, dist = search_tables(train_f, query_f, k)
    neighbor_z = z[idx]
    if weighting == "uniform":
        return neighbor_mean(neighbor_z)
    w = 1.0 / np.maximum(dist, DISTANCE_EPS)
    return (w * neighbor_z).sum(axis=1) / w.sum(axis=1)


@contextmanager
def search_tile(size):
    """Search in tiles of ``size`` queries; None keeps SEARCH_TILE."""
    with pytest.MonkeyPatch.context() as patch:
        if size is not None:
            patch.setattr(features, "SEARCH_TILE", size)
        yield


@contextmanager
def search_batch(pairs):
    """Search in batches of the given pair budget; None keeps the module's."""
    with pytest.MonkeyPatch.context() as patch:
        if pairs is not None:
            patch.setattr(features, "SEARCH_BATCH_PAIRS", pairs)
        yield


def stable_first_k(d2, k):
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def tied_head_rows(d2, k):
    """Rows with two equal values among their k + 1 smallest."""
    head = np.sort(d2, axis=1)[:, :k + 1]
    return int(np.count_nonzero((head[:, 1:] == head[:, :-1]).any(axis=1)))


class TestFirstK:
    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_matches_stable_argsort_on_heavy_ties(self, rng, k):
        # small integers tie on almost every row, and +inf entries tie with
        # each other; widths run from k to 4k, both sides of the 2k rule
        for width in range(k, 4 * k + 1):
            d2 = rng.integers(0, 4, (60, width)).astype(float)
            d2[rng.random(d2.shape) < 0.15] = np.inf
            pick, resorts = features._first_k(d2, k)
            assert pick.tobytes() == stable_first_k(d2, k).tobytes()
            assert resorts == (tied_head_rows(d2, k) if width > 2 * k else 0)

    @pytest.mark.parametrize("k", [1, 12])
    def test_distinct_values_take_no_resort(self, rng, k):
        for width in (k, 2 * k, 2 * k + 1, 4 * k):
            d2 = rng.permutation(60 * width).reshape(60, width).astype(float)
            pick, resorts = features._first_k(d2, k)
            assert pick.tobytes() == stable_first_k(d2, k).tobytes() and resorts == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_stable_argsort(self, data):
        k = data.draw(st.integers(1, 8), label="k")
        width = data.draw(st.integers(k, 4 * k), label="width")
        rows = data.draw(st.integers(1, 6), label="rows")
        values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, np.inf])
        d2 = np.array(data.draw(st.lists(values, min_size=rows * width, max_size=rows * width),
                                label="d2")).reshape(rows, width)
        pick, resorts = features._first_k(d2, k)
        assert pick.tobytes() == stable_first_k(d2, k).tobytes()
        assert resorts == (tied_head_rows(d2, k) if width > 2 * k else 0)


class TestBatches:
    """_batches, the one rule that cuts search batches, split-search slices
    and tuning's fold groups."""

    @staticmethod
    def cut(sizes, unit, budget):
        return [(part.start, part.stop) for part in features._batches(sizes, unit, budget)]

    def test_cases(self):
        # everything fits in one slice
        assert self.cut([3, 5, 2, 4], 2, 40) == [(0, 4)]
        # an oversized first item forms a slice of its own
        assert self.cut([30, 2, 3, 1], 1, 10) == [(0, 1), (1, 4)]
        # an oversized middle item too
        assert self.cut([2, 3, 30, 1, 2], 1, 10) == [(0, 2), (2, 3), (3, 5)]
        # the slice's largest item sets its cost: a wide item closes the slice
        assert self.cut([1, 1, 1, 5], 1, 12) == [(0, 3), (3, 4)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=30), st.integers(1, 8),
           st.integers(0, 400))
    def test_slices_are_consecutive_cover_every_item_and_fit(self, sizes, unit, budget):
        parts = list(features._batches(sizes, unit, budget))
        assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]]
        assert parts[-1].stop == len(sizes) and all(p.stop > p.start for p in parts)

        def cost(part):
            return (part.stop - part.start) * max(sizes[part]) * unit

        assert all(cost(p) <= budget or p.stop - p.start == 1 for p in parts)
        # greedy: a slice ends only where its next item would break the budget
        assert all(cost(slice(p.start, p.stop + 1)) > budget for p in parts[:-1])


class TestNeighborSearch:
    def test_matches_brute_force_bitwise(self, rng):
        for _ in range(10):
            train_f = rng.normal(0, 1, (int(rng.integers(5, 60)), 3))
            query_f = rng.normal(0, 1, (20, 3))
            k = int(rng.integers(1, len(train_f) + 1))
            idx, dist = search_tables(train_f, query_f, k)
            bidx, bdist = brute_force_knn(train_f, query_f, k)
            np.testing.assert_array_equal(idx, bidx)
            np.testing.assert_array_equal(dist, bdist)

    def test_chunking_invariance(self, rng):
        train_f = rng.normal(0, 1, (40, 2))
        query_f = rng.normal(0, 1, (30, 2))
        with search_tile(7):
            a = search_tables(train_f, query_f, 5)
        with search_tile(1024):
            b = search_tables(train_f, query_f, 5)
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
            search_tables(train_f, train_f, 3)
        assert tiles == [size or features.SEARCH_TILE]

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
                idx, dist = search_tables(train_f, query_f, k)
            np.testing.assert_array_equal(idx, bidx[:, :k])
            np.testing.assert_array_equal(dist, bdist[:, :k])

    def test_rounded_covariates_with_duplicates_match_brute_force(self, rng):
        for dim in range(3, 7):
            train_f = np.round(rng.normal(0, 1, (300, dim)) * 2) / 2
            query_f = np.round(rng.normal(0, 1, (150, dim)) * 2) / 2
            query_f[:20] = train_f[rng.integers(0, 300, 20)]
            k = int(rng.integers(1, 40))
            idx, dist = search_tables(train_f, query_f, k)
            bidx, bdist = brute_force_knn(train_f, query_f, k)
            np.testing.assert_array_equal(idx, bidx)
            np.testing.assert_array_equal(dist, bdist)

    def test_edge_shapes(self, rng):
        train_f = rng.normal(0, 1, (30, 2))
        query_f = rng.normal(0, 1, (200, 2))
        for q in (query_f, query_f[:1]):
            with search_tile(16):
                idx, dist = search_tables(train_f, q, 30)
            bidx, bdist = brute_force_knn(train_f, q, 30)
            np.testing.assert_array_equal(idx, bidx)
            np.testing.assert_array_equal(dist, bdist)
        idx, dist = search_tables(train_f, query_f[:0], 4)
        assert idx.shape == (0, 4) and dist.shape == (0, 4)
        # a reducer sets the result's trailing shape and dtype, with no query too
        for q in (query_f, query_f[:0]):
            def every_other(indices, distances):
                return distances[:, ::2].astype(np.float32)

            kept = neighbor_search(train_f, q, 4, reduce=every_other)
            assert kept.shape == (len(q), 2) and kept.dtype == np.float32
            np.testing.assert_array_equal(kept, every_other(*search_tables(train_f, q, 4)))

    def test_feature_order_is_numpy_row_sum_below_8_features(self, rng):
        # the claim the search's exactness rests on, checked on the numpy at hand
        for dim in range(1, 8):
            for train_f, query_f in feature_cases(rng, dim):
                row_sum = ((query_f[:, None] - train_f[None]) ** 2).sum(axis=-1)
                assert feature_ordered_d2(query_f, train_f).tobytes() == row_sum.tobytes()

    @pytest.mark.parametrize("dim", [1, 7])
    def test_edge_widths_match_brute_force_bitwise(self, rng, dim):
        for train_f, query_f in feature_cases(rng, dim):
            for size in (1, 7, None):
                with search_tile(size):
                    idx, dist = search_tables(train_f, query_f, 9)
                bidx, bdist = brute_force_knn(train_f, query_f, 9)
                np.testing.assert_array_equal(idx, bidx)
                np.testing.assert_array_equal(dist, bdist)

    @pytest.mark.parametrize("dim", [8, 10, 12])
    def test_wide_features_match_feature_ordered_brute_force(self, rng, dim):
        for train_f, query_f in feature_cases(rng, dim):
            k = int(rng.integers(1, 20))
            bidx, bdist = feature_ordered_knn(train_f, query_f, k)
            for size in (1, 7, None):
                with search_tile(size):
                    idx, dist = search_tables(train_f, query_f, k)
                np.testing.assert_array_equal(idx, bidx)
                np.testing.assert_array_equal(dist, bdist)

    def test_tile_order_matches_int64_keys(self, rng):
        for dim in range(1, 7):
            query_f = rng.normal(0, 1, (3000, dim))
            query_f[1000:2000] = query_f[:1000]  # duplicated rows
            constant = query_f.copy()
            constant[:, dim - 1] = 0.5  # a constant column, span 0
            for cols in (query_f.T, np.round(query_f * 2).T / 2, constant.T):
                for tile in (1, 7, 64, 3000):
                    np.testing.assert_array_equal(
                        features._tile_order(cols, tile), tile_order_int64_ref(cols, tile))
        # one feature at tile 1: g is 2**16 itself, clamped to 2**16 - 1 bins
        cols = rng.normal(0, 1, (1, 70_000))
        np.testing.assert_array_equal(
            features._tile_order(cols, 1), tile_order_int64_ref(cols, 1))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_setup_memory_is_query_copy_order_output_and_one_feature(self, rng, dim):
        # a 300 x 300 query lattice against 720 records, k 12, one float kept
        # per query: the feature-major query copy, the tile order, the output
        # and one feature's temporaries of the tile geometry (the spread so
        # far, the repeated centres, their difference), each nq float64, plus
        # 1 MB for the per-tile arrays; the int64 bins and keys and a second
        # query copy took 89 bytes a query in 2-D
        side, k = 300, 12
        axes = np.meshgrid(*[np.linspace(-1.7, 1.7, side)] * 2)
        query_f = np.column_stack([a.ravel() for a in axes] + [
            np.sin(3 * axes[0].ravel() * f) for f in range(dim - 2)])
        train_f = rng.normal(0, 1, (720, dim))
        nq = len(query_f)
        tracemalloc.start()
        try:
            out = neighbor_search(train_f, query_f, k, lambda idx, dist: dist[:, -1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (nq,)
        assert peak < (dim + 1 + 1 + 3) * 8 * nq + (1 << 20)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_candidate_pairs_at_tiles_of_one_query(self, rng, dim):
        # a tile of one query is its own centre with radius 0: its candidates
        # are the records within its k-th distance times 1 + PRUNE_MARGIN
        for train_f, query_f in feature_cases(rng, dim, nq=200, n=150):
            k = int(rng.integers(1, 30))
            dist = np.sqrt(feature_ordered_d2(query_f, train_f))
            reach = np.sort(dist, axis=1)[:, k - 1:k] * (1 + features.PRUNE_MARGIN)
            stats = {}
            with search_tile(1):
                neighbor_search(train_f, query_f, k, lambda idx, d: d[:, 0], stats=stats)
            assert stats["candidate_pairs"] == int(np.count_nonzero(dist <= reach))
            # any tiling scans at least k and at most every record per query
            with search_tile(None):
                neighbor_search(train_f, query_f, k, lambda idx, d: d[:, 0], stats=stats)
            assert k * len(query_f) <= stats["candidate_pairs"] <= dist.size

    def test_batch_budget_invariance(self, rng):
        # one tile per batch, the default budget and one batch for the whole
        # search give the same bits and the same pair count
        cx, cy = np.meshgrid(np.arange(24) + 0.5, np.arange(24) + 0.5)
        lattice = np.column_stack([cx.ravel(), cy.ravel()]) - 12.0
        fx, fy = np.meshgrid(np.arange(48) / 2 + 0.25, np.arange(48) / 2 + 0.25)
        cases = [(lattice[rng.random(len(lattice)) >= 0.2],
                  np.column_stack([fx.ravel(), fy.ravel()]) - 12.0, 12)]
        for dim in (2, 4):
            cases += [(t, q, 9) for t, q in feature_cases(rng, dim, nq=700, n=150)]
        for train_f, query_f, k in cases:
            found = []
            for pairs in (0, None, 2**40):
                stats = {}
                with search_batch(pairs):
                    both = neighbor_search(train_f, query_f, k, lambda idx, dist: np.hstack(
                        [idx.astype(np.float64), dist]), stats=stats)
                found.append((both.tobytes(), stats["candidate_pairs"]))
            assert found[0] == found[1] == found[2]

    @pytest.mark.parametrize("pairs", [0, 1500, None])
    def test_stacks_fit_the_batch_budget(self, rng, pairs):
        # every stack _first_k sorts holds at most SEARCH_BATCH_PAIRS pairs,
        # or is one tile: with fewer than 128 records, where a tile once
        # grew past SEARCH_TILE queries, and in 4-D, where stacks are wide
        cases = [(rng.normal(0, 1, (40, 2)), rng.normal(0, 1, (700, 2))),
                 (np.round(rng.normal(0, 1, (300, 4)) * 2) / 2,
                  np.round(rng.normal(0, 1, (700, 4)) * 2) / 2)]
        first_k, stacks = features._first_k, []
        for train_f, query_f in cases:
            shapes = []

            def recorded(d2, k):
                shapes.append(d2.shape)
                return first_k(d2, k)

            with search_batch(pairs), pytest.MonkeyPatch.context() as patch:
                patch.setattr(features, "_first_k", recorded)
                budget = features.SEARCH_BATCH_PAIRS
                search_tables(train_f, query_f, 9)
            assert sum(rows for rows, _ in shapes) == len(query_f)
            assert all(rows * width <= budget or rows <= features.SEARCH_TILE
                       for rows, width in shapes)
            stacks.append(shapes)
        # the 40 records' tiles are narrow enough to share a default batch
        assert pairs is not None or max(rows for rows, _ in stacks[0]) > features.SEARCH_TILE

    @pytest.mark.parametrize("pairs", [0, None, 2**40])
    def test_rounded_covariate_space_matches_brute_force(self, rng, pairs):
        # 4-D covariate space, the paper's predictors: pruning keeps wide
        # candidate blocks, so selection takes the default argsort, and the
        # rounded features tie, so rows fall back to the stable sort
        covs = np.round(rng.normal(0, 1, (1000, 4)) * 2) / 2
        table = PointTable(rng.uniform(0, 10, 1000), rng.uniform(0, 10, 1000),
                           rng.random(1000), covs)
        train, queries = table.subset(slice(0, 300)), table.subset(slice(300, None))
        space = FeatureSpace.fit("covariates", train)
        train_f, query_f = space.features(train), space.features(queries)
        k, stats, widths = 12, {}, []
        first_k = features._first_k

        def recorded(d2, k):
            widths.append(d2.shape[1])
            return first_k(d2, k)

        with search_batch(pairs), pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "_first_k", recorded)
            both = neighbor_search(train_f, query_f, k, lambda idx, dist: np.hstack(
                [idx.astype(np.float64), dist]), stats=stats)
        bidx, bdist = brute_force_knn(train_f, query_f, k)
        np.testing.assert_array_equal(both[:, :k].astype(np.int64), bidx)
        np.testing.assert_array_equal(both[:, k:], bdist)
        assert max(widths) > 2 * k and stats["tie_resorts"] > 0

    def test_duplicate_training_rows_tie_break(self):
        train_f = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
        idx, _ = search_tables(train_f, np.array([[0.0, 0.0]]), 3)
        np.testing.assert_array_equal(idx[0], [1, 2, 0])

    def test_k_out_of_range(self, rng):
        train_f = rng.normal(0, 1, (5, 2))
        with pytest.raises(UsageError):
            search_tables(train_f, train_f, 6)
        with pytest.raises(UsageError):
            search_tables(train_f, train_f, 0)


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

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("size", [1, 7, "all", None])
    def test_tile_reduction_matches_whole_tables_bitwise(self, rng, weighting, size):
        train = random_table(rng, 60, 2)
        train = train.with_target(rng.random(60) * 10.0 ** rng.integers(-3, 4, 60))
        queries = random_table(rng, 400, 2)
        # queries on training records meet a zero distance, floored
        queries = PointTable(
            np.r_[train.lon[:20], queries.lon[20:]], np.r_[train.lat[:20], queries.lat[20:]],
            queries.target, np.r_[train.covariates[:20], queries.covariates[20:]])
        space = FeatureSpace.fit("coords+covariates", train)
        train_f, query_f = space.features(train), space.features(queries)
        # the default tile, SEARCH_TILE queries, splits 400 into 7
        for k in (1, 12, 60):
            expect = knn_whole_tables(train.target, train_f, query_f, k, weighting)
            with search_tile(len(queries) if size == "all" else size):
                pred = knn_predict(train, queries, KnnConfig(k, weighting), space)
            assert pred.dtype == expect.dtype and pred.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_no_queries(self, rng, weighting):
        train = random_table(rng, 12, 0).with_target(rng.random(12))
        space = FeatureSpace.fit("coords", train)
        pred = knn_predict(train, train.subset(slice(0, 0)), KnnConfig(4, weighting), space)
        assert pred.shape == (0,) and pred.dtype == np.float64

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_memory_does_not_grow_with_queries_times_k(self, rng, weighting):
        # the whole (nq, k) tables took 3.3 (uniform) and 5.3 (inverse-distance)
        # such arrays at peak; the tiles keep only per-query rows
        k, nq = 12, 50_000
        train = random_table(rng, 400, 0).with_target(rng.random(400))
        queries = random_table(rng, nq, 0)
        space = FeatureSpace.fit("coords", train)
        tracemalloc.start()
        try:
            knn_predict(train, queries, KnnConfig(k, weighting), space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * nq * k * 8

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
