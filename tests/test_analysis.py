import numpy as np
import pytest

from finegrid import (
    Grid,
    PointTable,
    UsageError,
    aggregate_fine_to_coarse,
    format_metrics,
    grid_to_points,
    pearson_r2,
    residual_report,
    scatter_export,
)

from conftest import cell_index_ref

NODATA = -9999.0


def coarse_grid(values, cellsize=1.0, xll=0.0, yll=0.0):
    values = np.asarray(values, dtype=float)
    return Grid(ncols=values.shape[1], nrows=values.shape[0], xll=xll, yll=yll,
                cellsize=cellsize, nodata=NODATA, values=values)


def pts(lon, lat, z):
    return PointTable(lon, lat, z, np.zeros((len(lon), 0)))


class TestAggregate:
    def test_two_point_mean(self):
        coarse = coarse_grid([[0.0]])
        out = aggregate_fine_to_coarse(pts([0.25, 0.75], [0.5, 0.5],
                                           [0.2, 0.4]), coarse)
        assert out.values[0, 0] == pytest.approx(0.3, abs=1e-16)

    def test_identical_values_recovered_bitwise(self, rng):
        coarse = coarse_grid([[0.0, 0.0], [0.0, 0.0]])
        v = float(rng.random())
        lon = rng.uniform(0, 2, 64)
        lat = rng.uniform(0, 2, 64)
        out = aggregate_fine_to_coarse(pts(lon, lat, np.full(64, v)), coarse)
        filled = out.values[out.data_mask]
        assert (filled == v).all()

    def test_points_outside_ignored(self):
        coarse = coarse_grid([[0.0]])
        out = aggregate_fine_to_coarse(
            pts([0.5, 5.0, -1.0], [0.5, 0.5, 0.5], [0.4, 9.0, 9.0]), coarse)
        assert out.values[0, 0] == 0.4

    def test_empty_cells_become_nodata(self):
        coarse = coarse_grid([[0.0, 0.0]])
        out = aggregate_fine_to_coarse(pts([0.5], [0.5], [0.3]), coarse)
        assert out.values[0, 0] == 0.3
        assert out.values[0, 1] == NODATA

    def test_mean_equal_to_nodata_refused(self):
        # written, the cell would read back as a gap
        coarse = coarse_grid([[0.0, 0.0]])
        with pytest.raises(UsageError, match=r"^1 aggregated value\(s\) equal the nodata value -9999\.0$"):
            aggregate_fine_to_coarse(pts([0.5, 0.5, 1.5], [0.5, 0.5, 0.5],
                                         [-9998.0, -10000.0, 0.3]), coarse)

    def test_order_invariance_exact(self, rng):
        coarse = coarse_grid(np.zeros((3, 3)))
        lon = rng.uniform(0, 3, 200)
        lat = rng.uniform(0, 3, 200)
        z = rng.random(200)
        a = aggregate_fine_to_coarse(pts(lon, lat, z), coarse)
        perm = rng.permutation(200)
        b = aggregate_fine_to_coarse(pts(lon[perm], lat[perm], z[perm]), coarse)
        np.testing.assert_array_equal(a.values, b.values)

    def test_matches_slow_oracle(self, rng):
        import math
        coarse = coarse_grid(np.zeros((4, 5)), cellsize=0.5, xll=-1.0, yll=2.0)
        # the grid spans lon [-1, 1.5) and lat [2, 4): some points outside,
        # then every point outside
        for lon_range, lat_range in (((-1.2, 2.0), (1.8, 4.4)), ((1.5, 3.0), (1.8, 4.4))):
            lon = rng.uniform(*lon_range, 300)
            lat = rng.uniform(*lat_range, 300)
            z = rng.random(300)
            out = aggregate_fine_to_coarse(pts(lon, lat, z), coarse)
            for r in range(4):
                for c in range(5):
                    members = []
                    for i in range(300):
                        cell = cell_index_ref(coarse, lon[i], lat[i])
                        if cell == (r, c):
                            members.append(z[i])
                    if members:
                        assert out.values[r, c] == math.fsum(members) / len(members)
                    else:
                        assert out.values[r, c] == NODATA

    def test_grid_to_points_round_trip(self, rng):
        # aggregating a grid's own centroids returns the grid
        grid = coarse_grid(rng.random((4, 4)))
        out = aggregate_fine_to_coarse(grid_to_points(grid), grid)
        np.testing.assert_array_equal(out.values, grid.values)

    def test_empty_table_rejected(self):
        with pytest.raises(UsageError):
            aggregate_fine_to_coarse(pts([], [], []), coarse_grid([[0.0]]))


class TestPearson:
    def test_identical_arrays_exactly_one(self, rng):
        a = rng.random(50)
        r2, degenerate = pearson_r2(a, a.copy())
        assert r2 == 1.0
        assert not degenerate

    def test_matches_corrcoef_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 100))
            a = rng.normal(0, 1, n)
            b = 0.5 * a + rng.normal(0, 1, n)
            r2, degenerate = pearson_r2(a, b)
            assert not degenerate
            expect = float(np.corrcoef(a, b)[0, 1]) ** 2
            assert r2 == pytest.approx(expect, abs=1e-12)

    def test_anticorrelation_squares_away_sign(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        r2, _ = pearson_r2(a, -2.0 * a + 7.0)
        assert r2 == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_constant_sample(self, rng):
        r2, degenerate = pearson_r2(np.full(10, 0.3), rng.random(10))
        assert (r2, degenerate) == (0.0, True)

    def test_too_short_rejected(self):
        with pytest.raises(UsageError):
            pearson_r2(np.array([1.0]), np.array([2.0]))


class TestResidualReport:
    def test_worked_example(self):
        observed = coarse_grid([[0.2, 0.4], [NODATA, 0.5]])
        aggregated = coarse_grid([[0.25, 0.4], [0.1, NODATA]])
        report = residual_report(aggregated, observed)
        assert report.residual.values[0, 0] == pytest.approx(0.05, abs=1e-15)
        assert report.residual.values[0, 1] == 0.0
        # cells missing on either side are nodata in the residual
        assert report.residual.values[1, 0] == NODATA
        assert report.residual.values[1, 1] == NODATA
        assert report.n_cells == 2
        rel = report.relative_residual.values[0, 0]
        assert rel == pytest.approx(0.05 / 0.2, abs=1e-15)

    def test_identical_grids(self, rng):
        g = coarse_grid(rng.random((5, 5)))
        report = residual_report(g, g.with_values(g.values.copy()))
        assert report.r2 == 1.0
        assert report.rmse == 0.0
        assert not report.r2_degenerate
        assert report.n_cells == 25
        np.testing.assert_array_equal(report.residual.values, 0.0)

    def test_rmse_matches_oracle(self, rng):
        obs_vals = rng.random((6, 6))
        agg_vals = obs_vals + rng.normal(0, 0.1, (6, 6))
        report = residual_report(coarse_grid(agg_vals), coarse_grid(obs_vals))
        expect = float(np.sqrt(np.mean((agg_vals - obs_vals) ** 2)))
        assert report.rmse == pytest.approx(expect, abs=1e-15)
        r2_expect = float(np.corrcoef(agg_vals.ravel(), obs_vals.ravel())[0, 1]) ** 2
        assert report.r2 == pytest.approx(r2_expect, abs=1e-12)

    def test_residuals_equal_to_nodata_refused(self):
        # 1.0 - 10000.0 is the nodata value; so is (-19996.0 - 2.0) / 2.0
        # as a relative residual, whose residual -19998.0 is not
        for agg, obs, name in (([1.0, 0.5], [10000.0, 0.5], "residual"),
                               ([-19996.0, 0.5], [2.0, 0.5], "relative residual")):
            with pytest.raises(UsageError, match=rf"^1 {name} value\(s\) equal the nodata value -9999\.0$"):
                residual_report(coarse_grid([agg]), coarse_grid([obs]))

    def test_relative_residual_nodata_at_zero_observed(self):
        observed = coarse_grid([[0.0, 0.5]])
        aggregated = coarse_grid([[0.3, 0.6]])
        report = residual_report(aggregated, observed)
        assert report.residual.values[0, 0] == pytest.approx(0.3)
        assert report.relative_residual.values[0, 0] == NODATA
        assert report.relative_residual.values[0, 1] == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_r2_flag(self, rng):
        observed = coarse_grid(np.full((3, 3), 0.4))
        aggregated = coarse_grid(rng.random((3, 3)))
        report = residual_report(aggregated, observed)
        assert report.r2 == 0.0
        assert report.r2_degenerate

    def test_single_pair_r2_none(self):
        observed = coarse_grid([[0.2, NODATA]])
        aggregated = coarse_grid([[0.25, NODATA]])
        report = residual_report(aggregated, observed)
        assert report.r2 is None
        assert report.n_cells == 1
        assert report.rmse == pytest.approx(0.05, abs=1e-15)

    def test_zero_pairs(self):
        observed = coarse_grid([[NODATA]])
        aggregated = coarse_grid([[0.1]])
        report = residual_report(aggregated, observed)
        assert report.n_cells == 0
        assert report.r2 is None
        assert np.isnan(report.rmse)

    def test_header_mismatch_rejected(self):
        with pytest.raises(UsageError):
            residual_report(coarse_grid([[0.1]]), coarse_grid([[0.1]], xll=5.0))


class TestFormatMetrics:
    def test_line_shape(self, rng):
        g = coarse_grid(rng.random((4, 4)))
        line = format_metrics(residual_report(g, g))
        assert line == "r2=1.0 rmse=0.0 n=16"

    def test_absent_r2(self):
        report = residual_report(coarse_grid([[0.25]]), coarse_grid([[0.2]]))
        line = format_metrics(report)
        assert line.startswith("r2=absent rmse=")
        assert line.endswith("n=1")

    def test_values_round_trip_through_repr(self, rng):
        obs = coarse_grid(rng.random((5, 5)))
        agg = coarse_grid(rng.random((5, 5)))
        report = residual_report(agg, obs)
        line = format_metrics(report)
        fields = dict(part.split("=") for part in line.split())
        assert float(fields["r2"]) == report.r2
        assert float(fields["rmse"]) == report.rmse
        assert int(fields["n"]) == report.n_cells


class TestScatterExport:
    def test_rows_match_paired_cells(self, rng, tmp_path):
        vals = rng.random((3, 4))
        vals[1, 2] = NODATA
        observed = coarse_grid(vals)
        aggregated = coarse_grid(rng.random((3, 4)))
        path = tmp_path / "scatter.csv"
        scatter_export(aggregated, observed, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lon,lat,observed,predicted"
        report = residual_report(aggregated, observed)
        assert len(lines) - 1 == report.n_cells == 11

    def test_values_parse_back_exactly(self, rng, tmp_path):
        observed = coarse_grid(rng.random((2, 2)), cellsize=0.5, xll=3.0, yll=7.0)
        aggregated = coarse_grid(rng.random((2, 2)), cellsize=0.5, xll=3.0, yll=7.0)
        path = tmp_path / "s.csv"
        scatter_export(aggregated, observed, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        # row-major order: first row is cell (0, 0), the northwest corner
        lon, lat, obs, pred = map(float, rows[0])
        assert (lon, lat) == observed.centroid(0, 0)
        assert obs == observed.values[0, 0]
        assert pred == aggregated.values[0, 0]

    def test_header_only_when_no_pairs(self, tmp_path):
        observed = coarse_grid([[NODATA]])
        aggregated = coarse_grid([[0.4]])
        path = tmp_path / "empty.csv"
        scatter_export(aggregated, observed, path)
        assert path.read_text() == "lon,lat,observed,predicted\n"
