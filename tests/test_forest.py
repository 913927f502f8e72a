import itertools
import math
import re

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


# The recursive grower that the lockstep one replaced, kept as the bitwise
# reference: one tree at a time, each node's split searched feature by feature.


def _best_split_ref(xn, zn, rng, mtry, min_leaf):
    n, p = xn.shape
    feats = rng.choice(p, size=mtry, replace=False)
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


def _grow_tree_ref(x, z, rng, mtry, min_leaf):
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(indices):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        zn = z[indices]
        if len(indices) < 2 * min_leaf or zn.min() == zn.max():
            value[node] = float(np.mean(zn))
            return node
        split = _best_split_ref(x[indices], zn, rng, mtry, min_leaf)
        if split is None:
            value[node] = float(np.mean(zn))
            return node
        f, thr = split
        go_left = x[indices, f] <= thr
        left_id = grow(indices[go_left])
        right_id = grow(indices[~go_left])
        feature[node] = f
        threshold[node] = thr
        left[node] = left_id
        right[node] = right_id
        return node

    grow(np.arange(len(z)))
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


def oob_rmse_ref(trees, in_bag, train):
    z, n, x = train.target, len(train), train.covariates
    oob_sum = np.zeros(n)
    oob_count = np.zeros(n, dtype=np.int64)
    for tree, boot in zip(trees, in_bag):
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
    trees, in_bag = [], []
    for t in range(cfg.ntree):
        rng = np.random.default_rng([cfg.seed & ((1 << 64) - 1), t])
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree_ref(x[boot], z[boot], rng, cfg.mtry, cfg.min_leaf))
        in_bag.append(boot)
    oob_rmse = oob_rmse_ref(trees, in_bag, train)
    return Forest(tuple(trees), tuple(in_bag), oob_rmse, train.p, cfg)


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
    z = covs[:, 0] * 0.5 + np.sin(covs[:, -1]) + rng.normal(0, 0.05, len(covs))
    if name == "constant":
        z = np.full(len(covs), 0.7)
    return table(covs, z), mtry, min_leaf


ORACLE_CASES = [
    "rounded", "min_leaf_1", "mtry_1", "mtry_p", "constant", "tiny", "duplicated", "p_1",
]


class TestLockstepOracle:
    """The lockstep grower must give the recursive grower's forests bit for bit."""

    @staticmethod
    def assert_same(forest, ref):
        assert serialize_forest(forest) == serialize_forest(ref)
        assert len(forest.in_bag) == len(ref.in_bag)
        for a, b in zip(forest.in_bag, ref.in_bag):
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
        self.assert_same(rf_fit(train, cfg), ref)
        self.assert_same(rf_fit(train, cfg, workers=3), ref)

    @pytest.mark.parametrize("name", ["rounded", "duplicated"])
    def test_batch_size_invariance(self, name, monkeypatch):
        # a budget below one node gives every pending node a batch of its own
        train, mtry, min_leaf = oracle_case(name)
        cfg = RfConfig(ntree=6, mtry=mtry, min_leaf=min_leaf, seed=2)
        ref = rf_fit_ref(train, cfg)
        monkeypatch.setattr(forest_module, "SPLIT_STACK_BYTES", 1)
        self.assert_same(rf_fit(train, cfg), ref)
        monkeypatch.setattr(forest_module, "SPLIT_STACK_BYTES", 8 * mtry * 300)
        self.assert_same(rf_fit(train, cfg), ref)


def stream_ref(rng):
    """The 32-bit values a stream's 32-bit draws take, one by one: the half
    of an output the bit generator holds back, if any, then the low and the
    high half of each next 64-bit output."""
    state = rng.bit_generator.state
    if state["has_uint32"]:
        yield state["uinteger"]
    while True:
        raw = int(rng.bit_generator.random_raw())
        yield raw & 0xFFFFFFFF
        yield raw >> 32


def bounded_ref(values, bound, rejections):
    """Lemire's draw in [0, bound] from an iterator of 32-bit values, one
    value at a time; ``rejections`` counts the values rejected."""
    if bound == 0:
        return 0
    span = bound + 1
    while True:
        m = next(values) * span
        if m % (1 << 32) >= (1 << 32) % span:
            return m >> 32
        rejections.append(bound)


def choice_ref(values, p, mtry, rejections):
    """Generator.choice(p, size=mtry, replace=False) on 32-bit values, one
    draw at a time: Floyd's algorithm, then a Fisher-Yates shuffle."""
    picks = []
    for j in range(p - mtry, p):
        pick = bounded_ref(values, j, rejections)
        picks.append(j if pick in picks else pick)
    for i in range(mtry - 1, 0, -1):
        j = bounded_ref(values, i, rejections)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


class TestFeatureReplay:
    """Each tree's per-node features are replayed from its stream in one
    vectorised pass; they must be the draws Generator.choice makes."""

    @staticmethod
    def streams(seed, count):
        """count seeded streams, each past a bootstrap of odd or even length."""
        rngs = [np.random.default_rng([seed, t]) for t in range(count)]
        for t, rng in enumerate(rngs):
            n = 20 + t % 7
            rng.integers(0, n, size=n)
        return rngs

    @pytest.mark.parametrize("p", range(1, 13))
    def test_matches_generator_choice(self, p):
        held = set()
        for mtry in range(1, p + 1):
            oracle = self.streams(100 * p + mtry, 50)
            tapes = forest_module._Tapes(self.streams(100 * p + mtry, 50))
            held |= set(tapes.start.tolist())
            cursor = tapes.start.copy()
            for draw in range(4):
                # a different subset of the trees, in tree order, at each draw
                trees = np.flatnonzero(np.arange(50) % (draw + 1) == 0)
                picks = forest_module._draw_features(tapes, cursor, trees, p, mtry)
                expected = [oracle[t].choice(p, size=mtry, replace=False) for t in trees]
                np.testing.assert_array_equal(picks, expected, err_msg=f"mtry {mtry}")
        # tapes that start on a held-back half and tapes that do not
        assert held == {0, 1}

    def test_rejection_and_extension_match_scalar_rule(self, monkeypatch):
        # one output per block, so every few draws read past a tape's end
        monkeypatch.setattr(forest_module, "TAPE_BLOCK", 1)
        p, mtry, count = 3, 3, 6
        tapes = forest_module._Tapes(self.streams(9, count))
        refs = [list(itertools.islice(stream_ref(rng), 200)) for rng in self.streams(9, count)]
        # tree 2's second value, which Floyd's bound-2 draw reads, becomes 0:
        # 0·3 leaves 0 < 2³² mod 3 = 1, so the draw is rejected
        second = tapes.start[2] + 1
        tapes.take(np.array([2]), np.array([second]))
        tapes.values[2, second] = 0
        refs[2][1] = 0
        length = tapes.values.shape[1]
        values = [iter(ref) for ref in refs]
        rejections = []
        cursor = tapes.start.copy()
        for trees in ([0, 1, 2, 3, 4, 5], [2, 4], [0, 2, 3], [1, 2, 5], [2]):
            picks = forest_module._draw_features(tapes, cursor, np.array(trees), p, mtry)
            expected = [choice_ref(values[t], p, mtry, rejections) for t in trees]
            np.testing.assert_array_equal(picks, expected)
        assert rejections == [2]
        assert tapes.values.shape[1] > length

    @pytest.mark.parametrize("name", ["rounded", "mtry_p", "p_1"])
    def test_short_tapes_extend_mid_growth(self, name, monkeypatch):
        train, mtry, min_leaf = oracle_case(name)
        cfg = RfConfig(ntree=5, mtry=mtry, min_leaf=min_leaf, seed=4)
        ref = rf_fit_ref(train, cfg)
        monkeypatch.setattr(forest_module, "TAPE_BLOCK", 1)
        TestLockstepOracle.assert_same(rf_fit(train, cfg), ref)


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
    """(candidate, fold) RMSE of the per-fold loop that tune_mtry replaced:
    rf_fit_ref on the fold's training records, then rf_predict on its own."""
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
    """tune_mtry's fold forests, grown in grouped locksteps and scored in one
    routing pass per group, must give the per-fold loop's RMSEs bit for bit."""

    @staticmethod
    def tune(train, cfg, candidates, folds):
        stats = {}
        choice = tune_mtry(train, cfg, candidates, folds=folds, stats=stats)
        return choice, stats

    @pytest.mark.parametrize("name", ["covariates_15", "rounded", "duplicated", "tiny"])
    def test_matches_reference_loop(self, name):
        train, candidates, min_leaf = tune_case(name)
        cfg = RfConfig(ntree=4, mtry="tune", min_leaf=min_leaf, seed=5)
        ref = tune_rmse_ref(train, cfg, candidates, 3)
        choice, stats = self.tune(train, cfg, candidates, 3)
        assert same_bits(stats["fold_rmse"], ref)
        means = [np.mean(row) for row in ref]
        assert stats["cv_rmse"] == dict(zip(candidates, means))
        assert choice == candidates[int(np.argmin(means))]

    @pytest.mark.parametrize("name", ["covariates_15", "duplicated"])
    def test_grouping_invariance(self, name, monkeypatch):
        # a budget of one row grows every fold alone, a huge one all together
        train, candidates, min_leaf = tune_case(name)
        cfg = RfConfig(ntree=5, mtry="tune", min_leaf=min_leaf, seed=8)
        runs = []
        for budget in (1, 1 << 40):
            monkeypatch.setattr(forest_module, "TUNE_LOCKSTEP_ROWS", budget)
            runs.append(self.tune(train, cfg, candidates, 4))
        (alone, alone_stats), (joint, joint_stats) = runs
        assert same_bits(alone_stats["fold_rmse"], joint_stats["fold_rmse"])
        assert alone_stats["cv_rmse"] == joint_stats["cv_rmse"]
        assert alone == joint


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
        assert refit.oob_rmse == oob_rmse_ref(forest.trees, forest.in_bag, train)
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
        assert all(np.count_nonzero(boot < 300) > 128 for boot in ref.in_bag)
        forest = rf_fit(train, cfg)
        TestLockstepOracle.assert_same(forest, ref)
        assert same_bits(rf_predict(forest, train), rf_predict_ref(ref, train))


class TestDeterminism:
    def test_same_seed_bit_identical(self, rng):
        train = random_train(rng)
        cfg = RfConfig(ntree=12, mtry=2, min_leaf=3, seed=42)
        a = rf_fit(train, cfg)
        b = rf_fit(train, cfg)
        assert serialize_forest(a) == serialize_forest(b)
        queries = random_train(rng, 30)
        np.testing.assert_array_equal(rf_predict(a, queries), rf_predict(b, queries))

    def test_worker_count_invariance(self, rng):
        train = random_train(rng)
        cfg = RfConfig(ntree=8, mtry=2, min_leaf=3, seed=7)
        serial = rf_fit(train, cfg, workers=1)
        parallel = rf_fit(train, cfg, workers=4)
        assert serialize_forest(serial) == serialize_forest(parallel)
        assert serial.oob_rmse == parallel.oob_rmse

    def test_different_seeds_differ(self, rng):
        train = random_train(rng)
        a = rf_fit(train, RfConfig(ntree=5, mtry=2, seed=0))
        b = rf_fit(train, RfConfig(ntree=5, mtry=2, seed=1))
        assert serialize_forest(a) != serialize_forest(b)


class TestTreeStructure:
    def test_tiny_sample_single_leaf(self, rng):
        # n below 2 * min_leaf: every tree is one leaf at its bootstrap mean
        train = table(rng.normal(0, 1, (4, 2)), rng.random(4))
        forest = rf_fit(train, RfConfig(ntree=6, mtry=1, min_leaf=5, seed=3))
        for tree, boot in zip(forest.trees, forest.in_bag):
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
        forest = rf_fit(train, RfConfig(ntree=4, mtry=3, min_leaf=min_leaf, seed=9))
        for tree, boot in zip(forest.trees, forest.in_bag):
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

    def test_query_width_mismatch(self, rng):
        forest = rf_fit(random_train(rng, 40, 3), RfConfig(ntree=2, mtry=2))
        with pytest.raises(UsageError):
            rf_predict(forest, random_train(rng, 5, 2))
