import collections
import math
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import finegrid.models.forest as forest_module
from finegrid import (
    Forest,
    ParseError,
    PointTable,
    RfConfig,
    UsageError,
    default_mtry_grid,
    read_forest,
    rf_fit,
    rf_predict,
    serialize_forest,
    tune_mtry,
    write_forest,
)


def table(covs, z):
    covs = np.asarray(covs, dtype=float)
    n = covs.shape[0]
    return PointTable(np.linspace(0, 1, n), np.linspace(40, 41, n), z, covs)


def random_train(rng, n=120, p=3):
    covs = rng.normal(0, 1, (n, p))
    z = covs[:, 0] * 0.5 + np.sin(covs[:, 1]) + rng.normal(0, 0.05, n)
    return table(covs, z)


# The keyed feature draw in pure Python, on ints masked to 64 bits, so it
# does not depend on numpy's integer rules or version.

M64 = (1 << 64) - 1


def mix_ref(z):
    """splitmix64's output for state z."""
    z = (z + 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def root_key_ref(seed, t):
    return mix_ref(mix_ref(seed & M64) ^ t)


def child_key_ref(key, side):
    """side 0 is the left child, 1 the right."""
    return mix_ref(key ^ side)


def draw_ref(key, p, mtry):
    return sorted(range(p), key=lambda f: mix_ref(key ^ mix_ref(f)))[:mtry]


# A one-tree, one-node-at-a-time grower, kept as the bitwise reference: nodes
# are taken from a FIFO queue, so ids are breadth first, and each node's
# split is searched feature by feature.


def _best_split_ref(xn, zn, feats, min_leaf):
    n = len(zn)
    best_score = math.inf
    best = None
    sizes_left = np.arange(1, n)
    sizes_right = n - sizes_left
    for f in feats:
        xs = xn[:, f]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        zs = zn[order]
        c1 = np.cumsum(zs)
        c2 = np.cumsum(zs * zs)
        sse_left = c2[:-1] - c1[:-1] ** 2 / sizes_left
        sse_right = (c2[-1] - c2[:-1]) - (c1[-1] - c1[:-1]) ** 2 / sizes_right
        mid = (xs[:-1] + xs[1:]) / 2.0
        valid = (
            (sizes_left >= min_leaf)
            & (sizes_right >= min_leaf)
            & (xs[:-1] < mid)
            & (mid < xs[1:])
        )
        if not valid.any():
            continue
        score = np.where(valid, sse_left + sse_right, math.inf)
        i = int(np.argmin(score))
        if score[i] < best_score:
            best_score = score[i]
            best = (int(f), float(mid[i]))
    return best


def _grow_tree_ref(x, z, key, mtry, min_leaf):
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
    queue = collections.deque([(0, np.arange(len(z)), key)])
    while queue:
        node, indices, key = queue.popleft()
        zn = z[indices]
        split = None
        if len(indices) >= 2 * min_leaf and zn.min() != zn.max():
            split = _best_split_ref(x[indices], zn, draw_ref(key, x.shape[1], mtry), min_leaf)
        if split is None:
            value[node] = float(np.mean(zn))
            continue
        feature[node], threshold[node] = split
        go_left = x[indices, split[0]] <= split[1]
        for side, links, part in ((0, left, indices[go_left]), (1, right, indices[~go_left])):
            links[node] = len(feature)
            queue.append((len(feature), part, child_key_ref(key, side)))
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
    return forest_module.Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value),
    )


# The per-tree routing that the forest-wide pass replaced, kept as the bitwise
# reference: each tree routes its queries alone, and rf_predict and the
# out-of-bag sums add the trees' leaves one tree at a time, from 0.0.


def tree_predict_ref(tree, x):
    nodes = np.zeros(len(x), dtype=np.int64)
    active = np.nonzero(tree.feature[nodes] >= 0)[0]
    while len(active):
        ids = nodes[active]
        go_left = x[active, tree.feature[ids]] <= tree.threshold[ids]
        nodes[active] = np.where(go_left, tree.left[ids], tree.right[ids])
        active = active[tree.feature[nodes[active]] >= 0]
    return tree.value[nodes]


def rf_predict_ref(forest, queries):
    total = np.zeros(len(queries))
    for tree in forest.trees:
        total += tree_predict_ref(tree, queries.covariates)
    return total / forest.ntree


def bootstraps_ref(cfg, n):
    """Each tree t's bootstrap: n record indices in [0, n) drawn first from
    the stream seeded by (seed, t)."""
    return [np.random.default_rng([cfg.seed & M64, t]).integers(0, n, size=n)
            for t in range(cfg.ntree)]


@contextmanager
def recorded_bootstraps():
    """The bootstraps of every _grow_trees call made in the block, one list
    per call."""
    calls, grow = [], forest_module._grow_trees

    def grow_trees(x, z, boots, *args):
        calls.append(list(boots))
        return grow(x, z, boots, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "_grow_trees", grow_trees)
        yield calls


def oob_rmse_ref(trees, boots, train):
    z, n, x = train.target, len(train), train.covariates
    oob_sum = np.zeros(n)
    oob_count = np.zeros(n, dtype=np.int64)
    for tree, boot in zip(trees, boots):
        oob = np.setdiff1d(np.arange(n), boot)
        if len(oob):
            oob_sum[oob] += tree_predict_ref(tree, x[oob])
            oob_count[oob] += 1
    covered = oob_count > 0
    if not covered.any():
        return float("nan")
    residual = oob_sum[covered] / oob_count[covered] - z[covered]
    return float(np.sqrt(np.mean(residual * residual)))


def rf_fit_ref(train, cfg):
    z = train.require_targets()
    n, x = len(train), train.covariates
    boots = bootstraps_ref(cfg, n)
    trees = [_grow_tree_ref(x[boot], z[boot], root_key_ref(cfg.seed, t), cfg.mtry, cfg.min_leaf)
             for t, boot in enumerate(boots)]
    return Forest(tuple(trees), oob_rmse_ref(trees, boots, train), train.p, cfg)


def oracle_case(name):
    """(train, mtry, min_leaf) for one named bitwise-oracle case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n, p, mtry, min_leaf = 150, 4, 2, 3
    covs = rng.normal(0, 1, (n, p))
    if name == "rounded":  # values tie on a 0.1 lattice, ties straddle thresholds
        covs = np.round(covs, 1)
    elif name == "min_leaf_1":
        min_leaf = 1
    elif name == "mtry_1":
        mtry = 1
    elif name == "mtry_p":
        mtry = p
    elif name == "tiny":  # n < 2 * min_leaf: every tree is one leaf
        covs, min_leaf = covs[:7], 4
    elif name == "duplicated":
        covs = np.round(np.vstack([covs[:60], covs[:60], covs[:30]]), 1)
    elif name == "p_1":
        covs, mtry = np.round(covs[:, :1], 1), 1
    elif name == "signed_zeros":  # rounding (-0.5, 0) gives -0.0, [0, 0.5) gives 0.0
        covs = np.round(covs)
    elif name == "distinct_300":  # more than 256 distinct values: uint16 rank codes
        covs = np.vstack([covs, rng.normal(0, 1, (150, p))])
    z = covs[:, 0] * 0.5 + np.sin(covs[:, -1]) + rng.normal(0, 0.05, len(covs))
    if name == "constant":
        z = np.full(len(covs), 0.7)
    return table(covs, z), mtry, min_leaf


ORACLE_CASES = [
    "rounded", "min_leaf_1", "mtry_1", "mtry_p", "constant", "tiny", "duplicated", "p_1",
    "signed_zeros", "distinct_300",
]


class TestLockstepOracle:
    """Growing all trees breadth first together must give the one-tree
    reference grower's forests bit for bit."""

    @staticmethod
    def fit(train, cfg, workers=1):
        """rf_fit's forest and the bootstraps it grew its trees on."""
        with recorded_bootstraps() as calls:
            forest = rf_fit(train, cfg, workers=workers)
        (boots,) = calls
        return forest, boots

    @staticmethod
    def assert_same(fitted, ref, train):
        forest, boots = fitted
        ref_boots = bootstraps_ref(ref.config, len(train))
        assert serialize_forest(forest) == serialize_forest(ref)
        assert len(boots) == len(ref_boots)
        for a, b in zip(boots, ref_boots):
            np.testing.assert_array_equal(a, b)
        assert forest.oob_rmse == ref.oob_rmse or (
            math.isnan(forest.oob_rmse) and math.isnan(ref.oob_rmse)
        )

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_matches_recursive_reference(self, name):
        train, mtry, min_leaf = oracle_case(name)
        cfg = RfConfig(ntree=12, mtry=mtry, min_leaf=min_leaf, seed=31)
        ref = rf_fit_ref(train, cfg)
        if name == "rounded":
            assert any(t.n_nodes > 20 for t in ref.trees)
        if name in ("constant", "tiny"):
            assert all(t.n_nodes == 1 for t in ref.trees)
        self.assert_same(self.fit(train, cfg), ref, train)
        self.assert_same(self.fit(train, cfg, workers=3), ref, train)

    def test_cases_reach_their_code_paths(self):
        covs = oracle_case("signed_zeros")[0].covariates
        zeros = covs[covs == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert forest_module._rank_codes(covs).dtype == np.uint8
        assert forest_module._rank_codes(oracle_case("distinct_300")[0].covariates).dtype == np.uint16

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64])
    def test_every_code_dtype_grows_the_same_forest(self, dtype, monkeypatch):
        # wider codes than the rule picks sort the stacks in the same order
        train, mtry, min_leaf = oracle_case("rounded")
        cfg = RfConfig(ntree=8, mtry=mtry, min_leaf=min_leaf, seed=4)
        ref = rf_fit_ref(train, cfg)
        rank_codes = forest_module._rank_codes
        monkeypatch.setattr(forest_module, "_rank_codes", lambda x: rank_codes(x).astype(dtype))
        self.assert_same(self.fit(train, cfg), ref, train)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_batch_size_invariance(self, name, monkeypatch):
        # a budget below one node gives every searched node a batch of its own
        train, mtry, min_leaf = oracle_case(name)
        cfg = RfConfig(ntree=6, mtry=mtry, min_leaf=min_leaf, seed=2)
        ref = rf_fit_ref(train, cfg)
        monkeypatch.setattr(forest_module, "SPLIT_STACK_BYTES", 1)
        self.assert_same(self.fit(train, cfg), ref, train)
        monkeypatch.setattr(forest_module, "SPLIT_STACK_BYTES", 8 * mtry * 300)
        self.assert_same(self.fit(train, cfg), ref, train)


class TestKeyedDraw:
    """Each node draws its features by key; the draw must be the pure-Python
    splitmix64 rule's, a uniform subset, and independent of the other trees."""

    def test_mix_is_splitmix64(self):
        # splitmix64's first outputs from state 1234567, the published
        # reference values; then arbitrary states against mix_ref
        states = 1234567 + np.arange(5, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        assert forest_module._mix(states).tolist() == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]
        states = np.random.default_rng(3).integers(0, M64, size=200, dtype=np.uint64, endpoint=True)
        assert forest_module._mix(states).tolist() == [mix_ref(int(s)) for s in states]

    @pytest.mark.parametrize("seed", [0, 31, -1, (1 << 64) + 5])
    def test_keys_and_draws_match_python_reference(self, seed):
        keys = forest_module._root_keys(seed, 20)
        assert keys.tolist() == [root_key_ref(seed, t) for t in range(20)]
        for p in range(1, 13):
            for mtry in range(1, p + 1):
                picks = forest_module._keyed_features(keys, p, mtry)
                assert picks.tolist() == [draw_ref(int(k), p, mtry) for k in keys]

    def test_draws_distinct_and_in_range(self):
        keys = forest_module._mix(np.arange(3000, dtype=np.uint64))
        for p, mtry in [(1, 1), (4, 2), (7, 7), (15, 6), (40, 3)]:
            picks = np.sort(forest_module._keyed_features(keys, p, mtry), axis=1)
            assert picks.shape == (3000, mtry)
            assert picks.min() >= 0 and picks.max() < p
            assert (picks[:, 1:] != picks[:, :-1]).all()

    @pytest.mark.parametrize("p, mtry", [(4, 2), (7, 3), (15, 2)])
    def test_feature_frequency_near_mtry_over_p(self, p, mtry):
        count = 4000
        picks = forest_module._keyed_features(forest_module._root_keys(9, count), p, mtry)
        share = np.bincount(picks.ravel(), minlength=p) / count
        # five binomial standard deviations of a share of mtry / p
        q = mtry / p
        assert np.abs(share - q).max() < 5 * math.sqrt(q * (1 - q) / count)
        # the first pick alone is uniform too
        first = np.bincount(picks[:, 0], minlength=p) / count
        assert np.abs(first - 1 / p).max() < 5 * math.sqrt((1 / p) * (1 - 1 / p) / count)

    @pytest.mark.parametrize("name", ["rounded", "mtry_p", "duplicated"])
    def test_trees_grown_together_equal_grown_alone(self, name):
        train, mtry, min_leaf = oracle_case(name)
        x, z = train.covariates, train.target
        cfg = RfConfig(ntree=7, mtry=mtry, min_leaf=min_leaf, seed=13)
        boots = forest_module._bootstraps(cfg, len(train))
        keys = forest_module._root_keys(cfg.seed, cfg.ntree)
        together = forest_module._grow_trees(x, z, boots, keys, mtry, min_leaf)
        for t, tree in enumerate(together):
            alone, = forest_module._grow_trees(x, z, boots[t:t + 1], keys[t:t + 1], mtry, min_leaf)
            for field in ("feature", "threshold", "left", "right", "value"):
                assert same_bits(getattr(tree, field), getattr(alone, field))


def tune_case(name):
    """(train, candidates, min_leaf) for one mtry tuning oracle case."""
    if name == "covariates_15":  # criterion-05-like input: candidates 2..14
        rng = np.random.default_rng(515)
        covs = np.round(rng.normal(0, 1, (120, 15)), 1)
        z = 0.4 * covs[:, 0] + 0.2 * covs[:, 3] + rng.normal(0, 0.05, 120)
        return table(covs, z), list(range(2, 15)), 5
    train, _, min_leaf = oracle_case(name)
    return train, list(range(1, train.p + 1)), min_leaf


def tune_rmse_ref(train, cfg, candidates, folds):
    """(candidate, fold) RMSE of tune_mtry's per-fold loop, fitting with the
    recursive rf_fit_ref on the fold's training records, then scoring with
    rf_predict on its held-out records."""
    n = len(train)
    rng = np.random.default_rng([cfg.seed, forest_module._TUNE_STREAM])
    rmse = np.empty((len(candidates), folds))
    for fi, test_idx in enumerate(np.array_split(rng.permutation(n), folds)):
        keep = np.ones(n, dtype=bool)
        keep[test_idx] = False
        for ci, cand in enumerate(candidates):
            fitted = rf_fit_ref(train.subset(keep), RfConfig(
                ntree=cfg.ntree, mtry=cand, min_leaf=cfg.min_leaf, seed=cfg.seed))
            err = rf_predict(fitted, train.subset(test_idx)) - train.target[test_idx]
            rmse[ci, fi] = np.sqrt(np.mean(err * err))
    return rmse


class TestTuneOracle:
    """tune_mtry's (candidate, fold) RMSEs, from each fold group's lockstep and
    masked scoring pass, must equal the reference loop's over the recursive
    fit and rf_predict on each fold, bit for bit, however the folds group."""

    @staticmethod
    def tune(train, cfg, candidates, folds):
        stats = {}
        choice = tune_mtry(train, cfg, candidates, folds=folds, stats=stats)
        return choice, stats

    # a pair budget of 1 grows every fold alone, and 2**40 all folds together;
    # the default budget keeps the bare case name
    @pytest.mark.parametrize("name, pairs", [
        pytest.param(name, pairs,
                     id=name if pairs == forest_module.ROUTE_PAIRS else f"{name}-{pairs}")
        for name in ("covariates_15", "rounded", "duplicated", "tiny")
        for pairs in (1, 7, forest_module.ROUTE_PAIRS, 2**40)
    ])
    def test_matches_reference_loop(self, name, pairs, monkeypatch):
        monkeypatch.setattr(forest_module, "ROUTE_PAIRS", pairs)
        train, candidates, min_leaf = tune_case(name)
        cfg = RfConfig(ntree=4, mtry="tune", min_leaf=min_leaf, seed=5)
        ref = tune_rmse_ref(train, cfg, candidates, 3)
        choice, stats = self.tune(train, cfg, candidates, 3)
        assert same_bits(stats["fold_rmse"], ref)
        means = [np.mean(row) for row in ref]
        assert stats["cv_rmse"] == dict(zip(candidates, means))
        assert choice == candidates[int(np.argmin(means))]


def same_bits(a, b):
    """Equal float arrays, bit for bit (so 0.0 and -0.0 differ)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRoutingOracle:
    """One routing pass over every (tree, query) pair must give the per-tree
    loop's leaves and sums bit for bit, for any pair budget."""

    @staticmethod
    def forest_and_queries():
        train, mtry, min_leaf = oracle_case("rounded")
        forest = rf_fit(train, RfConfig(ntree=12, mtry=mtry, min_leaf=min_leaf, seed=8))
        # training rows sit on the 0.1 lattice, so midpoint thresholds are
        # hit exactly by the rounded queries and straddled by the others
        rng = np.random.default_rng(97)
        covs = np.vstack([train.covariates, np.round(rng.normal(0, 1, (90, train.p)), 2)])
        return train, forest, table(covs, np.zeros(len(covs)))

    @pytest.mark.parametrize("pairs", [1, 7, forest_module.ROUTE_PAIRS])
    def test_predict_and_oob_match_per_tree_loop(self, pairs, monkeypatch):
        train, forest, queries = self.forest_and_queries()
        monkeypatch.setattr(forest_module, "ROUTE_PAIRS", pairs)
        assert same_bits(rf_predict(forest, queries), rf_predict_ref(forest, queries))
        refit = rf_fit(train, forest.config)
        boots = bootstraps_ref(forest.config, len(train))
        assert refit.oob_rmse == oob_rmse_ref(forest.trees, boots, train)
        assert refit.oob_rmse == forest.oob_rmse

    def test_tree_predict_matches_per_tree_loop(self):
        _, forest, queries = self.forest_and_queries()
        for tree in forest.trees:
            assert same_bits(tree.predict(queries.covariates),
                             tree_predict_ref(tree, queries.covariates))

    def test_zero_queries(self):
        train, forest, _ = self.forest_and_queries()
        empty = table(np.zeros((0, train.p)), np.zeros(0))
        assert same_bits(rf_predict(forest, empty), rf_predict_ref(forest, empty))

    def test_negative_zero_leaves_sum_from_zero(self, tmp_path):
        # a per-tree loop adds -0.0 leaves to 0.0 and gets 0.0
        path = tmp_path / "forest.txt"
        path.write_text("forest ntree=3 p=2 min_leaf=5 seed=0 mtry=1 oob_rmse=0.1\n"
                        + "".join(f"tree {t} nodes=1\n0 leaf -0.0\n" for t in range(3)))
        forest = read_forest(path)
        queries = table(np.zeros((4, 2)), np.zeros(4))
        assert same_bits(rf_predict(forest, queries), rf_predict_ref(forest, queries))
        assert same_bits(rf_predict(forest, queries), np.zeros(4))

    @pytest.mark.parametrize("distinct", [0, 60])
    def test_leaves_over_128_records(self, distinct):
        # duplicated covariate rows with differing targets cannot be split, so
        # they settle as one leaf whose mean crosses numpy's 128-element
        # pairwise-sum block; with no distinct rows every tree is that leaf
        rng = np.random.default_rng(128)
        covs = np.vstack([np.ones((300, 2)), rng.normal(0, 1, (distinct, 2))])
        train = table(covs, rng.random(len(covs)))
        cfg = RfConfig(ntree=6, mtry=2, min_leaf=1, seed=3)
        ref = rf_fit_ref(train, cfg)
        assert all(np.count_nonzero(boot < 300) > 128
                   for boot in bootstraps_ref(cfg, len(train)))
        fitted = TestLockstepOracle.fit(train, cfg)
        TestLockstepOracle.assert_same(fitted, ref, train)
        assert same_bits(rf_predict(fitted[0], train), rf_predict_ref(ref, train))


class TestRankCodes:
    @pytest.mark.parametrize("distinct, dtype", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.int64),
    ])
    def test_dtype_follows_the_distinct_count(self, distinct, dtype):
        x = np.column_stack([np.arange(distinct, 0, -1) / 8.0, np.zeros(distinct)])
        codes = forest_module._rank_codes(x)
        assert codes.dtype == dtype
        np.testing.assert_array_equal(codes[:, 0], np.arange(distinct - 1, -1, -1))
        assert (codes[:, 1] == 0).all()

    def test_equal_values_share_a_code(self):
        x = np.array([[0.5, -0.0, 0.0, -1.0, 0.5, np.inf]]).T
        assert forest_module._rank_codes(x)[:, 0].tolist() == [2, 1, 1, 0, 2, 3]

    def test_stable_sort_orders_records_as_the_values_do(self):
        # ties, -0.0 and 0.0 among them, keep their record order either way
        x = np.round(np.random.default_rng(5).normal(0, 1, (500, 3)), 1)
        assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()
        codes = forest_module._rank_codes(x)
        for f in range(3):
            np.testing.assert_array_equal(np.argsort(codes[:, f], kind="stable"),
                                          np.argsort(x[:, f], kind="stable"))


def hand_forest(trees, p):
    """A Forest of (feature, threshold, left, right, value) node lists."""
    built = tuple(forest_module.Tree(np.array(f, dtype=np.int64), np.array(t, dtype=float),
                                     np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64),
                                     np.array(v, dtype=float))
                  for f, t, lo, hi, v in trees)
    return Forest(built, 0.0, p, RfConfig(ntree=len(built), mtry=1))


def preorder(tree):
    """tree with its nodes renumbered in preorder, a left subtree before its
    parent's right child, as older forest files numbered them."""
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if tree.feature[node] >= 0:
            stack += [tree.right[node], tree.left[node]]
    new = np.full(tree.n_nodes, -1, dtype=np.int64)
    new[order] = np.arange(len(order))
    split = tree.feature[order] >= 0
    left = np.where(split, new[tree.left[order]], -1)
    right = np.where(split, new[tree.right[order]], -1)
    return forest_module.Tree(tree.feature[order], tree.threshold[order], left, right,
                              tree.value[order])


class TestBitmaskRouting:
    """Every branch of the leaf-bitmask router against the per-tree walk."""

    @staticmethod
    def assert_routes_as_walk(forest, covs):
        queries = table(covs, np.zeros(len(covs)))
        assert same_bits(rf_predict(forest, queries), rf_predict_ref(forest, queries))
        for tree in forest.trees:
            # a one-tree sum adds the leaf to 0.0, which changes only a -0.0 leaf
            assert same_bits(tree.predict(covs), 0.0 + tree_predict_ref(tree, covs))

    def test_thresholds_signed_zeros_and_non_finite_queries(self):
        # tree 0 splits on features 0 and 1 at 0.0, -0.0 and 0.5; tree 1 is one
        # leaf; tree 2 splits only on feature 2; no tree shares a threshold
        # list with another, and feature 1 has a -0.0 threshold
        forest = hand_forest([
            ([0, 1, 0, -1, -1, -1, -1], [0.0, -0.0, 0.5, 0, 0, 0, 0],
             [1, 3, 5, -1, -1, -1, -1], [2, 4, 6, -1, -1, -1, -1],
             [0, 0, 0, 1.0, 2.0, 3.0, 4.0]),
            ([-1], [0.0], [-1], [-1], [-0.0]),
            ([2, -1, 2, -1, -1], [0.5, 0, 0.0, 0, 0], [1, -1, 3, -1, -1], [2, -1, 4, -1, -1],
             [0, 8.0, 0, 16.0, 32.0]),
        ], p=3)
        grid = [-0.5, -0.0, 0.0, 0.5, np.nextafter(0.5, 1), np.nextafter(0.0, -1), np.nan,
                np.inf, -np.inf]
        covs = np.array(np.meshgrid(grid, grid, grid, indexing="ij")).reshape(3, -1).T
        self.assert_routes_as_walk(forest, covs)
        # NaN goes right at every node, as x <= threshold is false
        nan = forest.trees[0].predict(np.full((1, 3), np.nan))
        assert nan.tolist() == [4.0]

    def test_trees_over_128_leaves(self):
        # three or more mask words per tree
        rng = np.random.default_rng(129)
        train = table(rng.normal(0, 1, (600, 2)), rng.normal(0, 1, 600))
        forest = rf_fit(train, RfConfig(ntree=3, mtry=2, min_leaf=1, seed=5))
        assert forest_module._stack(forest.trees)[2].shape[0] >= 3
        boots = bootstraps_ref(forest.config, len(train))
        assert forest.oob_rmse == oob_rmse_ref(forest.trees, boots, train)
        self.assert_routes_as_walk(forest, np.vstack([train.covariates, rng.normal(0, 1, (200, 2))]))

    def test_feature_with_256_nodes_in_one_tree(self):
        # one covariate and one-record leaves: a tree splits on it at every
        # node, so its count table needs uint16
        rng = np.random.default_rng(256)
        train = table(rng.normal(0, 1, (700, 1)), rng.normal(0, 1, 700))
        forest = rf_fit(train, RfConfig(ntree=2, mtry=1, min_leaf=1, seed=1))
        (f, cut, counts), = forest_module._stack(forest.trees)[0]
        assert counts.dtype == np.uint16 and counts.max() >= 256
        covs = np.vstack([train.covariates, cut[:, None], rng.normal(0, 1, (100, 1))])
        self.assert_routes_as_walk(forest, covs)

    def test_forest_read_from_preorder_file(self, tmp_path):
        train, mtry, min_leaf = oracle_case("rounded")
        forest = rf_fit(train, RfConfig(ntree=5, mtry=mtry, min_leaf=min_leaf, seed=6))
        path = tmp_path / "forest.txt"
        write_forest(Forest(tuple(map(preorder, forest.trees)), forest.oob_rmse, forest.p,
                            forest.config), path)
        back = read_forest(path)
        assert any((tree.left != moved.left).any() for tree, moved in zip(forest.trees, back.trees))
        assert same_bits(rf_predict(back, train), rf_predict(forest, train))
        self.assert_routes_as_walk(back, train.covariates)

    def test_unreachable_nodes_ignored(self, tmp_path):
        # nodes no split links to are never reached, so they number no leaf
        path = tmp_path / "forest.txt"
        path.write_text("forest ntree=1 p=1 min_leaf=1 seed=0 mtry=1 oob_rmse=0.5\n"
                        "tree 0 nodes=6\n0 split 0 0.5 2 4\n1 split 0 0.1 3 5\n2 leaf 1.0\n"
                        "3 leaf 7.0\n4 leaf 2.0\n5 leaf 9.0\n")
        self.assert_routes_as_walk(read_forest(path), np.array([[0.0], [0.5], [1.0]]))


class TestDeterminism:
    def test_same_seed_bit_identical(self, rng):
        train = random_train(rng)
        cfg = RfConfig(ntree=12, mtry=2, min_leaf=3, seed=42)
        a = rf_fit(train, cfg)
        b = rf_fit(train, cfg)
        assert serialize_forest(a) == serialize_forest(b)
        queries = random_train(rng, 30)
        np.testing.assert_array_equal(rf_predict(a, queries), rf_predict(b, queries))

    @staticmethod
    def fit_predict_tune(train, queries, workers):
        forest = rf_fit(train, RfConfig(ntree=8, mtry=2, min_leaf=3, seed=7), workers=workers)
        stats = {}
        choice = tune_mtry(train, RfConfig(ntree=4, mtry="tune", min_leaf=3, seed=7),
                           [1, 2, 3], folds=3, stats=stats)
        return forest, rf_predict(forest, queries, workers=workers), stats["fold_rmse"], choice

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_invariance(self, rng, workers, monkeypatch):
        train, queries = random_train(rng), random_train(rng, 50)
        forest, pred, fold_rmse, choice = self.fit_predict_tune(train, queries, 1)
        # 7 pairs make every routing pass many chunks, so threads share them
        monkeypatch.setattr(forest_module, "ROUTE_PAIRS", 7)
        other, other_pred, other_rmse, other_choice = self.fit_predict_tune(
            train, queries, workers)
        assert serialize_forest(other) == serialize_forest(forest)
        assert same_bits(other.oob_rmse, forest.oob_rmse)
        assert same_bits(other_pred, pred)
        assert same_bits(other_rmse, fold_rmse)
        assert other_choice == choice

    def test_fit_grows_every_tree_in_one_lockstep(self, rng, monkeypatch):
        calls, grow = [], forest_module._grow_trees

        def grow_trees(x, z, boots, *args):
            calls.append(len(boots))
            return grow(x, z, boots, *args)

        monkeypatch.setattr(forest_module, "_grow_trees", grow_trees)
        forest = rf_fit(random_train(rng), RfConfig(ntree=8, mtry=2, seed=7), workers=4)
        assert calls == [8]
        assert forest.ntree == 8

    def test_tuning_starts_no_thread_pool(self, rng, monkeypatch):
        pools, pool = [], forest_module.ThreadPoolExecutor

        def counted(*args, **kwargs):
            pools.append(args)
            return pool(*args, **kwargs)

        monkeypatch.setattr(forest_module, "ThreadPoolExecutor", counted)
        # 7 pairs make every scoring pass many chunks
        monkeypatch.setattr(forest_module, "ROUTE_PAIRS", 7)
        train = random_train(rng)
        tune_mtry(train, RfConfig(ntree=4, mtry="tune", min_leaf=3, seed=7), [1, 2, 3], folds=3)
        assert pools == []
        # a threaded pass does start one through the patched name
        rf_predict(rf_fit(train, RfConfig(ntree=4, mtry=2)), train, workers=2)
        assert pools == [(2,)]

    def test_different_seeds_differ(self, rng):
        train = random_train(rng)
        a = rf_fit(train, RfConfig(ntree=5, mtry=2, seed=0))
        b = rf_fit(train, RfConfig(ntree=5, mtry=2, seed=1))
        assert serialize_forest(a) != serialize_forest(b)


class TestTreeStructure:
    def test_tiny_sample_single_leaf(self, rng):
        # n below 2 * min_leaf: every tree is one leaf at its bootstrap mean
        train = table(rng.normal(0, 1, (4, 2)), rng.random(4))
        cfg = RfConfig(ntree=6, mtry=1, min_leaf=5, seed=3)
        forest = rf_fit(train, cfg)
        for tree, boot in zip(forest.trees, bootstraps_ref(cfg, len(train))):
            assert tree.n_nodes == 1
            assert tree.value[0] == float(np.mean(train.target[boot]))

    def test_predictions_within_target_range(self, rng):
        train = random_train(rng, 150)
        forest = rf_fit(train, RfConfig(ntree=20, mtry=2, min_leaf=2, seed=5))
        pred = rf_predict(forest, random_train(rng, 60))
        assert pred.min() >= train.target.min() - 1e-12
        assert pred.max() <= train.target.max() + 1e-12

    def test_constant_target(self, rng):
        train = table(rng.normal(0, 1, (40, 2)), np.full(40, 0.7))
        forest = rf_fit(train, RfConfig(ntree=5, mtry=2, seed=1))
        pred = rf_predict(forest, train)
        np.testing.assert_array_equal(pred, 0.7)
        assert all(t.n_nodes == 1 for t in forest.trees)

    def test_leaves_respect_min_leaf(self, rng):
        train = random_train(rng, 200)
        min_leaf = 7
        cfg = RfConfig(ntree=4, mtry=3, min_leaf=min_leaf, seed=9)
        forest = rf_fit(train, cfg)
        for tree, boot in zip(forest.trees, bootstraps_ref(cfg, len(train))):
            x = train.covariates[boot]
            nodes = np.zeros(len(x), dtype=np.int64)
            # route the bootstrap sample down and count arrivals per leaf
            for _ in range(200):
                at_split = tree.feature[nodes] >= 0
                if not at_split.any():
                    break
                ids = nodes[at_split]
                go_left = x[at_split, tree.feature[ids]] <= tree.threshold[ids]
                nodes[at_split] = np.where(go_left, tree.left[ids], tree.right[ids])
            leaves, counts = np.unique(nodes, return_counts=True)
            assert (tree.feature[leaves] < 0).all()
            assert counts.min() >= min_leaf


class TestOob:
    def test_perfectly_predictable_binary_covariate(self, rng):
        # z is a deterministic function of a balanced binary covariate, so
        # out-of-bag predictions should recover it almost exactly
        n = 2000
        flag = (np.arange(n) % 2).astype(float)
        covs = np.column_stack([flag, rng.normal(0, 1, n)])
        z = np.where(flag > 0.5, 0.8, 0.2)
        forest = rf_fit(table(covs, z), RfConfig(ntree=100, mtry=1, min_leaf=5, seed=0))
        assert forest.oob_rmse < 0.01

    def test_oob_positive_on_noisy_data(self, rng):
        train = random_train(rng, 300)
        forest = rf_fit(train, RfConfig(ntree=30, mtry=2, seed=2))
        assert np.isfinite(forest.oob_rmse)
        assert forest.oob_rmse > 0


class TestSerialization:
    def test_round_trip_predicts_identically(self, rng, tmp_path):
        train = random_train(rng)
        forest = rf_fit(train, RfConfig(ntree=10, mtry=2, min_leaf=3, seed=11))
        path = tmp_path / "forest.txt"
        write_forest(forest, path)
        back = read_forest(path)
        assert back.ntree == forest.ntree
        assert back.p == forest.p
        assert back.config == forest.config
        assert back.oob_rmse == forest.oob_rmse
        queries = random_train(rng, 50)
        np.testing.assert_array_equal(rf_predict(back, queries),
                                      rf_predict(forest, queries))

    def test_reload_is_textually_stable(self, rng, tmp_path):
        forest = rf_fit(random_train(rng), RfConfig(ntree=3, mtry=2, seed=4))
        path = tmp_path / "f.txt"
        write_forest(forest, path)
        again = tmp_path / "g.txt"
        write_forest(read_forest(path), again)
        assert path.read_text() == again.read_text()

    def test_header_fields(self, rng, tmp_path):
        forest = rf_fit(random_train(rng), RfConfig(ntree=2, mtry=1, min_leaf=4, seed=6))
        text = serialize_forest(forest)
        head = text.splitlines()[0]
        assert head.startswith("forest ")
        assert "ntree=2" in head and "p=3" in head
        assert "min_leaf=4" in head and "seed=6" in head and "mtry=1" in head

    def test_preorder_file_still_reads(self, rng, tmp_path):
        # forests were once numbered in preorder (a left subtree before its
        # parent's right child); the format is unchanged, so such files load
        path = tmp_path / "forest.txt"
        path.write_text("forest ntree=2 p=2 min_leaf=1 seed=0 mtry=1 oob_rmse=0.5\n"
                        "tree 0 nodes=5\n0 split 0 0.25 1 4\n1 split 1 -0.5 2 3\n"
                        "2 leaf 1.5\n3 leaf 2.5\n4 leaf -1.0\n"
                        "tree 1 nodes=3\n0 split 1 0.0 1 2\n1 leaf 4.0\n2 leaf 8.0\n")
        forest = read_forest(path)
        queries = table(rng.normal(0, 1, (40, 2)), np.zeros(40))
        x = queries.covariates
        tree0 = np.where(x[:, 0] > 0.25, -1.0, np.where(x[:, 1] <= -0.5, 1.5, 2.5))
        assert same_bits(tree_predict_ref(forest.trees[0], x), tree0)
        assert same_bits(rf_predict(forest, queries), rf_predict_ref(forest, queries))
        expected = (tree0 + np.where(x[:, 1] <= 0.0, 4.0, 8.0)) / 2
        assert same_bits(rf_predict(forest, queries), expected)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a forest\n")
        with pytest.raises(ParseError):
            read_forest(path)
        path.write_text("forest ntree=1 p=2 min_leaf=5 seed=0 mtry=1 oob_rmse=0.1\n"
                        "tree 0 nodes=1\n0 stump 3.0\n")
        with pytest.raises(ParseError):
            read_forest(path)
        # node links routing cannot follow: a split that points at itself
        # (routing would never end) and one whose feature and children lie
        # outside the forest
        header = "forest ntree=1 p=2 min_leaf=5 seed=0 mtry=1 oob_rmse=0.1\n"
        for tree in ("tree 0 nodes=1\n0 split 0 0.5 0 0\n",
                     "tree 0 nodes=1\n0 split 7 0.5 5 6\n",
                     "tree 0 nodes=3\n0 split 1 0.5 1 5\n1 leaf 0.0\n2 leaf 1.0\n"):
            path.write_text(header + tree)
            with pytest.raises(ParseError, match=r"bad node line: .*:3\)"):
                read_forest(path)
        for count in ("x", "-1", "0"):
            path.write_text(header + f"tree 0 nodes={count}\n")
            with pytest.raises(ParseError, match=r"node count .*:2\)"):
                read_forest(path)
        # nothing may follow the last tree the header declares
        two = (header.replace("ntree=1", "ntree=2")
               + "tree 0 nodes=1\n0 leaf 0.5\ntree 1 nodes=1\n0 leaf 0.25\n")
        path.write_text(two)
        assert read_forest(path).ntree == 2
        for extra in ("tree 2 nodes=1\n0 leaf 0.0\n", "garbage here\n"):
            path.write_text(two + extra)
            with pytest.raises(ParseError, match=r"after the last of 2 trees .*:6\)"):
                read_forest(path)
        # header values the forest's own config refuses, and mtry=tune and an
        # mtry above p, which no fitted forest carries
        for bad in ("ntree=0", "min_leaf=0", "mtry=0", "mtry=auto", "mtry=tune", "mtry=5"):
            key = bad.partition("=")[0]
            path.write_text(re.sub(rf"{key}=\S+", bad, header) + "tree 0 nodes=1\n0 leaf 0.5\n")
            with pytest.raises(ParseError, match=r"bad forest header: .*:1\)"):
                read_forest(path)

    def test_node_with_two_parents_rejected(self, tmp_path):
        # routing numbers each tree's leaves left to right, which needs a tree
        path = tmp_path / "bad.txt"
        header = "forest ntree=1 p=2 min_leaf=5 seed=0 mtry=1 oob_rmse=0.1\n"
        for tree, line in (("tree 0 nodes=3\n0 split 0 0.5 1 1\n1 leaf 0.0\n2 leaf 1.0\n", 3),
                           ("tree 0 nodes=5\n0 split 0 0.5 1 2\n1 split 1 0.5 3 4\n"
                            "2 split 1 0.25 3 4\n3 leaf 0.0\n4 leaf 1.0\n", 5)):
            path.write_text(header + tree)
            with pytest.raises(ParseError, match=rf"bad node line: .*two parents .*:{line}\)"):
                read_forest(path)

    @pytest.mark.parametrize("node, line", [
        ("0 split 0 nan 1 2", 3), ("0 split 0 -inf 1 2", 3), ("2 leaf nan", 5), ("1 leaf inf", 4),
    ], ids=["threshold-nan", "threshold-inf", "leaf-nan", "leaf-inf"])
    def test_non_finite_node_rejected(self, tmp_path, node, line):
        # the writer never produces these, and a forest read with them would
        # predict NaN; a NaN oob_rmse stays legal, as a forest with no
        # out-of-bag record writes it
        path = tmp_path / "bad.txt"
        lines = ["forest ntree=1 p=2 min_leaf=5 seed=0 mtry=1 oob_rmse=nan", "tree 0 nodes=3",
                 "0 split 0 0.5 1 2", "1 leaf 0.5", "2 leaf 1.0"]
        path.write_text("\n".join(lines) + "\n")
        assert read_forest(path).ntree == 1
        lines[line - 1] = node
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"bad node line: .* is not finite .*:{line}\)"):
            read_forest(path)


class TestTuneMtry:
    def test_single_candidate_returned(self, rng):
        train = random_train(rng, 60)
        cfg = RfConfig(ntree=5, mtry="tune", seed=0)
        assert tune_mtry(train, cfg, candidates=[2], folds=3) == 2

    def test_informative_feature_wins(self, rng):
        # one real feature among noise: small mtry dilutes it less often,
        # but mainly assert the choice is deterministic and in range
        covs = np.column_stack([rng.normal(0, 1, 150),
                                rng.normal(0, 1, 150),
                                rng.normal(0, 1, 150)])
        z = covs[:, 0]
        train = table(covs, z)
        cfg = RfConfig(ntree=10, mtry="tune", seed=0)
        choice = tune_mtry(train, cfg, folds=3)
        assert choice in default_mtry_grid(3)
        assert tune_mtry(train, cfg, folds=3) == choice

    def test_grows_each_fold_group_once_per_candidate(self, rng, monkeypatch):
        # wrapped at the module bindings, as perfbench/tracing.py wraps rf_fit
        grown, drawn, fits = [], [], []
        grow, draw = forest_module._grow_trees, forest_module._bootstraps

        def counted_grow(x, z, boots, keys, mtry, min_leaf):
            grown.append((len(boots), mtry))
            return grow(x, z, boots, keys, mtry, min_leaf)

        def counted_draw(cfg, n):
            drawn.append(n)
            return draw(cfg, n)

        monkeypatch.setattr(forest_module, "_grow_trees", counted_grow)
        monkeypatch.setattr(forest_module, "_bootstraps", counted_draw)
        monkeypatch.setattr(forest_module, "rf_fit", lambda *args, **kwargs: fits.append(args))
        monkeypatch.setattr(forest_module, "rf_predict", lambda *args, **kwargs: fits.append(args))
        train = random_train(rng, 100)
        sizes = [34, 33, 33]  # np.array_split of 100 records into 3 folds
        # the default budget holds all 3 folds of 4 trees; 2 * 67 * 4 pairs
        # hold the first two folds' 66 and 67 training records, not the third
        for pairs, groups in ((forest_module.ROUTE_PAIRS, [3]), (2 * 67 * 4, [2, 1])):
            grown.clear()
            drawn.clear()
            monkeypatch.setattr(forest_module, "ROUTE_PAIRS", pairs)
            stats = {}
            tune_mtry(train, RfConfig(ntree=4, mtry="tune", min_leaf=3, seed=7), [1, 2, 3],
                      folds=3, stats=stats)
            assert stats["fold_groups"] == groups
            assert grown == [(4 * size, cand) for size in groups for cand in (1, 2, 3)]
            assert drawn == [100 - size for size in sizes]
        assert fits == []

    def test_fold_groups_draw_their_bootstraps_in_turn(self, rng, monkeypatch):
        # a budget of one fold's pairs makes every fold its own group, so at
        # most one fold's bootstraps are held at a time, never all of them
        n, folds, ntree = 2000, 20, 10
        fitting = n - n // folds
        monkeypatch.setattr(forest_module, "ROUTE_PAIRS", ntree * fitting)
        train = random_train(rng, n, 2)
        stats = {}
        tracemalloc.start()
        try:
            tune_mtry(train, RfConfig(ntree=ntree, mtry="tune", min_leaf=100, seed=7), [1],
                      folds=folds, stats=stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats["fold_groups"] == [1] * folds
        assert peak < folds * ntree * fitting * np.dtype(np.int64).itemsize

    def test_default_grid(self):
        assert default_mtry_grid(1) == [1]
        assert default_mtry_grid(2) == [1]
        assert default_mtry_grid(3) == [2]
        assert default_mtry_grid(15) == list(range(2, 15))

    def test_candidate_out_of_range(self, rng):
        train = random_train(rng, 40, 2)
        with pytest.raises(UsageError):
            tune_mtry(train, RfConfig(ntree=3, seed=0), candidates=[3], folds=2)

    def test_too_few_records_for_folds(self, rng):
        train = random_train(rng, 5)
        with pytest.raises(UsageError):
            tune_mtry(train, RfConfig(ntree=3, seed=0), candidates=[1], folds=10)


class TestValidation:
    def test_no_covariates_rejected(self, rng):
        train = PointTable(rng.uniform(0, 1, 10), rng.uniform(0, 1, 10),
                           rng.random(10), np.zeros((10, 0)))
        with pytest.raises(UsageError):
            rf_fit(train, RfConfig(ntree=2, mtry=1))

    def test_mtry_exceeding_p_rejected(self, rng):
        with pytest.raises(UsageError):
            rf_fit(random_train(rng, 30, 2), RfConfig(ntree=2, mtry=3))

    def test_tune_sentinel_rejected_at_fit(self, rng):
        with pytest.raises(UsageError):
            rf_fit(random_train(rng, 30), RfConfig(ntree=2, mtry="tune"))

    def test_config_validation(self):
        with pytest.raises(UsageError):
            RfConfig(ntree=0)
        with pytest.raises(UsageError):
            RfConfig(mtry=0)
        with pytest.raises(UsageError):
            RfConfig(mtry="grid")
        with pytest.raises(UsageError):
            RfConfig(min_leaf=0)

    def test_non_finite_training_covariates_rejected(self, rng):
        train = random_train(rng, 60)
        train.covariates[3, 1] = np.nan
        train.covariates[7, 0] = -np.inf
        for call in (lambda: rf_fit(train, RfConfig(ntree=2, mtry=2)),
                     lambda: tune_mtry(train, RfConfig(ntree=2), [1, 2], folds=3)):
            with pytest.raises(UsageError, match="2 non-finite training covariate"):
                call()

    def test_query_width_mismatch(self, rng):
        forest = rf_fit(random_train(rng, 40, 3), RfConfig(ntree=2, mtry=2))
        with pytest.raises(UsageError):
            rf_predict(forest, random_train(rng, 5, 2))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, rng, workers):
        train = random_train(rng, 40)
        forest = rf_fit(train, RfConfig(ntree=2, mtry=2))
        calls = [
            lambda: rf_fit(train, RfConfig(ntree=2, mtry=2), workers=workers),
            lambda: rf_predict(forest, train, workers=workers),
        ]
        for call in calls:
            with pytest.raises(UsageError, match="workers"):
                call()
