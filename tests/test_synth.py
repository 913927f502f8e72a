import numpy as np
import pytest

from finegrid import (
    FeatureSpace,
    KnnConfig,
    UsageError,
    grid_centroids,
    grid_to_points,
    holdout_eval,
    knn_predict,
    make_scenario,
    read_ascii_grid,
    read_region,
)
from finegrid.synth import FINE_CELLSIZE, MOISTURE_HI, MOISTURE_LO


class TestMakeScenario:
    def test_same_seed_bit_identical(self):
        a = make_scenario(seed=11, fine_shape=(64, 64), coarse_factor=8,
                          noise_stdev=0.01, gap_fraction=0.2)
        b = make_scenario(seed=11, fine_shape=(64, 64), coarse_factor=8,
                          noise_stdev=0.01, gap_fraction=0.2)
        np.testing.assert_array_equal(a.truth.values, b.truth.values)
        np.testing.assert_array_equal(a.observed.values, b.observed.values)
        for la, lb in zip(a.covariate_layers, b.covariate_layers):
            np.testing.assert_array_equal(la.values, lb.values)
        assert a.region.rings == b.region.rings

    def test_different_seeds_differ(self):
        a = make_scenario(seed=1, fine_shape=(32, 32), coarse_factor=4)
        b = make_scenario(seed=2, fine_shape=(32, 32), coarse_factor=4)
        assert not np.array_equal(a.truth.values, b.truth.values)

    def test_truth_in_moisture_band(self):
        s = make_scenario(seed=5, fine_shape=(64, 64), coarse_factor=8)
        assert s.truth.values.min() >= MOISTURE_LO - 1e-12
        assert s.truth.values.max() <= MOISTURE_HI + 1e-12

    def test_geometry(self):
        s = make_scenario(seed=0, fine_shape=(64, 96), coarse_factor=8)
        assert (s.truth.nrows, s.truth.ncols) == (64, 96)
        assert s.truth.cellsize == FINE_CELLSIZE
        assert (s.observed.nrows, s.observed.ncols) == (8, 12)
        assert s.observed.cellsize == pytest.approx(FINE_CELLSIZE * 8)
        # domain centered on the origin
        assert s.truth.xll == pytest.approx(-96 * FINE_CELLSIZE / 2)
        assert s.truth.yll == pytest.approx(-64 * FINE_CELLSIZE / 2)
        assert s.observed.xll == s.truth.xll

    # factor 27 puts 729 values in a block, past numpy's 128-value pairwise
    # sum blocking; (54, 108) is non-square
    @pytest.mark.parametrize("shape, f", [((48, 48), 4), ((108, 108), 27), ((54, 108), 27)],
                             ids=["square-4", "square-27", "nonsquare-27"])
    def test_zero_noise_observed_is_block_means(self, shape, f):
        s = make_scenario(seed=3, fine_shape=shape, coarse_factor=f,
                          noise_stdev=0.0, gap_fraction=0.0)
        for r in range(s.observed.nrows):
            for c in range(s.observed.ncols):
                block = s.truth.values[r * f:(r + 1) * f, c * f:(c + 1) * f]
                assert s.observed.values[r, c] == float(np.mean(block))

    def test_gap_count_within_tolerance(self):
        # 20 x 20 coarse cells at 30% gaps: stated band is 108..132 of 400
        s = make_scenario(seed=7, fine_shape=(160, 160), coarse_factor=8,
                          gap_fraction=0.3)
        n_gap = int((~s.observed.data_mask).sum())
        assert 108 <= n_gap <= 132

    def test_gap_cells_are_clustered(self):
        # blob construction: a marked cell usually has a marked neighbor
        s = make_scenario(seed=9, fine_shape=(160, 160), coarse_factor=8,
                          gap_fraction=0.2)
        gaps = ~s.observed.data_mask
        padded = np.pad(gaps, 1)
        neighbors = (padded[:-2, 1:-1] | padded[2:, 1:-1]
                     | padded[1:-1, :-2] | padded[1:-1, 2:])
        with_neighbor = (gaps & neighbors).sum()
        assert with_neighbor / gaps.sum() > 0.8

    def test_covariates_correlate_with_truth(self):
        s = make_scenario(seed=13, fine_shape=(64, 64), coarse_factor=8,
                          n_covariates=6)
        assert len(s.covariate_layers) == 6
        t = s.truth.values.ravel()
        for layer in s.covariate_layers:
            r = np.corrcoef(t, layer.values.ravel())[0, 1]
            assert abs(r) >= 0.3

    def test_region_is_central_box(self):
        s = make_scenario(seed=0, fine_shape=(64, 64), coarse_factor=8)
        assert s.region.name == "central"
        (ring,) = s.region.rings
        lons = [v[0] for v in ring]
        lats = [v[1] for v in ring]
        extent = 64 * FINE_CELLSIZE
        assert max(lons) - min(lons) == pytest.approx(extent / 2)
        assert max(lats) - min(lats) == pytest.approx(extent / 2)

    def test_parameter_validation(self):
        with pytest.raises(UsageError):
            make_scenario(seed=0, fine_shape=(33, 32), coarse_factor=4)
        with pytest.raises(UsageError):
            make_scenario(seed=0, fine_shape=(32, 32), coarse_factor=1)
        with pytest.raises(UsageError):
            make_scenario(seed=0, fine_shape=(32, 32), coarse_factor=4,
                          gap_fraction=1.0)
        # NaN would silently mean no noise, and inf would clip every observed
        # cell to 0 or 1
        for noise in (-0.1, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="noise_stdev must be a finite number"):
                make_scenario(seed=0, fine_shape=(32, 32), coarse_factor=4,
                              noise_stdev=noise)

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (-8, 8)])
    def test_empty_or_negative_fine_shape_rejected(self, shape):
        with pytest.raises(UsageError, match="at least one row and one column"):
            make_scenario(seed=0, fine_shape=shape, coarse_factor=4)

    def test_cli_rejects_malformed_fine_shape(self, tmp_path, capsys):
        from finegrid.cli import main
        with pytest.raises(SystemExit) as info:
            main(["synth", "--seed", "0", "--out", str(tmp_path / "s"),
                  "--fine-shape", "10x"])
        assert info.value.code == 2
        assert "expected ROWSxCOLS" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_dump_round_trips(self, tmp_path):
        s = make_scenario(seed=21, fine_shape=(32, 32), coarse_factor=4,
                          n_covariates=2, gap_fraction=0.1)
        manifest = s.dump(tmp_path)
        observed = read_ascii_grid(tmp_path / manifest["observed"])
        np.testing.assert_array_equal(observed.values, s.observed.values)
        truth = read_ascii_grid(tmp_path / manifest["truth"])
        np.testing.assert_array_equal(truth.values, s.truth.values)
        for name, rel in zip(s.covariate_names, manifest["covariates"]):
            layer = read_ascii_grid(tmp_path / rel)
            np.testing.assert_array_equal(
                layer.values,
                s.covariate_layers[s.covariate_names.index(name)].values)
        region = read_region(tmp_path / manifest["region"])
        assert region.rings == s.region.rings


class TestHoldoutEval:
    def scenario(self):
        return make_scenario(seed=17, fine_shape=(64, 64), coarse_factor=8,
                             noise_stdev=0.0, gap_fraction=0.0)

    def test_truth_predictions_score_perfectly(self):
        s = self.scenario()
        ev = holdout_eval(s, grid_to_points(s.truth))
        assert ev.truth.r2 == 1.0
        assert ev.truth.rmse == 0.0
        assert not ev.truth.r2_degenerate
        assert ev.coverage == 1.0

    def test_constant_predictions_degenerate(self):
        s = self.scenario()
        pts = grid_to_points(s.truth)
        const = pts.with_target(np.full(len(pts), float(s.truth.values.mean())))
        ev = holdout_eval(s, const)
        assert ev.truth.r2 == 0.0
        assert ev.truth.r2_degenerate

    def test_low_coverage_rejected(self):
        s = self.scenario()
        pts = grid_to_points(s.truth)
        half = pts.subset(np.arange(len(pts)) < len(pts) // 2)
        with pytest.raises(UsageError, match="99"):
            holdout_eval(s, half)

    def test_knn_beats_constant_baseline(self):
        # zero-noise scenario: local structure must beat the global mean
        s = self.scenario()
        train = grid_to_points(s.observed)
        space = FeatureSpace.fit("coords", train)
        queries = grid_centroids(s.truth)
        pred = knn_predict(train, queries, KnnConfig(k=5), space)
        ev = holdout_eval(s, queries.with_target(pred))

        baseline = float(train.target.mean())
        truth_vals = s.truth.values[s.truth.data_mask]
        baseline_rmse = float(np.sqrt(np.mean((truth_vals - baseline) ** 2)))
        assert ev.truth.rmse < baseline_rmse

    def test_observed_report_consistency(self):
        # containing-cell predictor reproduces the observed grid exactly
        s = self.scenario()
        queries = grid_centroids(s.truth)
        cells = s.observed.cell_numbers(queries.lon, queries.lat)
        assert (cells >= 0).all()
        pred = s.observed.values.ravel()[cells]
        ev = holdout_eval(s, queries.with_target(pred))
        assert ev.report.r2 == 1.0
        assert ev.report.rmse == 0.0
        assert not np.any(ev.report.residual.values[ev.report.observed.data_mask])
