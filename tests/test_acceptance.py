"""Acceptance suite: ten gate criteria, one printed pass/fail line each.

Each test computes its evidence first, prints a single summary line, then
asserts. Criteria with stated runtime budgets time the work they gate.
"""

import json
import time

import numpy as np

from finegrid import (
    FeatureSpace,
    Grid,
    contains,
    HyppoConfig,
    KnnConfig,
    ParseError,
    PointTable,
    RfConfig,
    grid_centroids,
    grid_to_points,
    holdout_eval,
    hyppo_predict,
    hyppo_predict_with_degrees,
    knn_predict,
    make_scenario,
    pca_fit,
    pca_transform,
    read_ascii_grid,
    read_region,
    residual_report,
    rf_fit,
    rf_predict,
    run_pipeline,
    sample_covariates,
    serialize_forest,
    tune_mtry,
    validate_config,
    write_ascii_grid,
    write_region,
)
from finegrid.region import Region

from conftest import random_grid


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _points(lon, lat, z):
    return PointTable(lon, lat, z, np.zeros((len(lon), 0)))


def test_criterion_01_knn_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    max_dev = 0.0
    for instance in range(50):
        n = 200
        train = _points(rng.uniform(0, 4, n), rng.uniform(0, 4, n), rng.random(n))
        queries = _points(rng.uniform(0, 4, 20), rng.uniform(0, 4, 20),
                          np.full(20, np.nan))
        k = (1, 3, 5, 10)[instance % 4]
        space = FeatureSpace.fit("coords", train)
        pred = knn_predict(train, queries, KnnConfig(k=k), space)

        train_f = space.features(train)
        query_f = space.features(queries)
        for qi in range(len(queries)):
            diff = train_f - query_f[qi]
            order = np.argsort((diff * diff).sum(axis=1), kind="stable")[:k]
            expect = float(np.mean(train.target[order]))
            max_dev = max(max_dev, abs(pred[qi] - expect))
    elapsed = time.perf_counter() - start
    ok = max_dev < 1e-12 and elapsed < 5.0
    _report(1, ok,
            f"knn equals brute-force full-sort average on 50 instances "
            f"(max dev {max_dev:.2e} < 1e-12; {elapsed:.2f} s < 5 s)")


def test_criterion_02_hyppo_exact_recovery():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    lon = rng.uniform(0, 1, 200)
    lat = rng.uniform(0, 1, 200)
    train = _points(lon, lat, 2.0 * lon + 3.0 * lat)
    space = FeatureSpace.fit("coords", train)
    qlon = rng.uniform(0.1, 0.9, 100)
    qlat = rng.uniform(0.1, 0.9, 100)
    queries = _points(qlon, qlat, np.full(100, np.nan))
    pred, degrees = hyppo_predict_with_degrees(
        train, queries, HyppoConfig(k=10, max_degree=3), space)
    truth = 2.0 * qlon + 3.0 * qlat
    degree1_share = float(np.mean(degrees == 1))
    max_err = float(np.abs(pred - truth).max())
    elapsed = time.perf_counter() - start
    ok = degree1_share >= 0.95 and max_err < 1e-9 and elapsed < 5.0
    _report(2, ok,
            f"noise-free plane recovered (degree 1 at {degree1_share:.0%} of "
            f"queries >= 95%, max |err| {max_err:.2e} < 1e-9; "
            f"{elapsed:.2f} s < 5 s)")


def test_criterion_03_hyppo_degree0_equals_knn(tmp_path):
    scenario = make_scenario(seed=303, fine_shape=(50, 50), coarse_factor=5,
                             n_covariates=0, noise_stdev=0.01, gap_fraction=0.1)
    data_dir = tmp_path / "data"
    scenario.dump(data_dir)
    rasters = {}
    for method, extra in (("knn", {}), ("hyppo", {"max_degree": 0})):
        out = tmp_path / method
        cfg = {
            "observed_grid": str(data_dir / "observed.asc"),
            "output_dir": str(out),
            "method": method,
            "k": 6,
            "fine_factor": 5,
        }
        cfg.update(extra)
        run_pipeline(validate_config(cfg))
        rasters[method] = (out / "prediction.asc").read_bytes()
    ok = rasters["knn"] == rasters["hyppo"]
    _report(3, ok,
            "hyppo(max_degree=0) and knn(uniform) produce bit-identical "
            "50x50 prediction rasters")


def test_criterion_04_pca_invariants():
    rng = np.random.default_rng(404)
    worst_orth = worst_sum = worst_var = 0.0
    for _ in range(100):
        covs = rng.normal(0, 1, (500, 15)) @ rng.normal(0, 1, (15, 15))
        table = PointTable(rng.uniform(0, 1, 500), rng.uniform(0, 1, 500),
                           np.full(500, np.nan), covs)
        model = pca_fit(table)
        gram = model.components @ model.components.T
        worst_orth = max(worst_orth,
                         float(np.abs(gram - np.eye(model.retained)).max()))
        worst_sum = max(worst_sum, abs(float(np.sum(model.eigenvalues)) - 15.0))
        scores = pca_transform(model, table).covariates
        worst_var = max(worst_var,
                        float(np.abs(scores.var(axis=0)
                                     - model.eigenvalues[: model.retained]).max()))

    base = rng.normal(0, 1, 400)
    pair = PointTable(rng.uniform(0, 1, 400), rng.uniform(0, 1, 400),
                      np.full(400, np.nan), np.column_stack([base, base]))
    pair_model = pca_fit(pair)
    pair_dev = float(np.abs(pair_model.eigenvalues - np.array([2.0, 0.0])).max())

    ok = (worst_orth < 1e-10 and worst_sum < 1e-8 and worst_var < 1e-8
          and pair_dev < 1e-10 and pair_model.retained == 1)
    _report(4, ok,
            f"100 tables: orthonormality dev {worst_orth:.2e} < 1e-10, "
            f"eigenvalue-sum dev {worst_sum:.2e} < 1e-8, score-variance dev "
            f"{worst_var:.2e} < 1e-8; correlated pair gives eigenvalues "
            f"{{2, 0}} within {pair_dev:.2e} and retained = "
            f"{pair_model.retained}")


def test_criterion_05_rf_determinism_and_sanity(tmp_path):
    rng = np.random.default_rng(505)

    covs = rng.normal(0, 1, (300, 4))
    z = 0.4 * covs[:, 0] + rng.normal(0, 0.05, 300)
    train = PointTable(rng.uniform(0, 1, 300), rng.uniform(0, 1, 300), z, covs)
    cfg = RfConfig(ntree=16, mtry=2, min_leaf=5, seed=99)
    runs = [serialize_forest(rf_fit(train, cfg)) for _ in range(2)]
    parallel = serialize_forest(rf_fit(train, cfg, workers=4))
    deterministic = runs[0] == runs[1] == parallel

    n = 2000
    flag = (np.arange(n) % 2).astype(float)
    onecov = np.column_stack([flag, rng.normal(0, 1, n)])
    target = np.where(flag > 0.5, 0.8, 0.2)
    oob_train = PointTable(rng.uniform(0, 1, n), rng.uniform(0, 1, n),
                           target, onecov)
    forest = rf_fit(oob_train, RfConfig(ntree=100, mtry=1, min_leaf=5, seed=0))
    oob_ok = forest.oob_rmse < 0.01

    scenario = make_scenario(seed=515, fine_shape=(64, 64), coarse_factor=8,
                             n_covariates=15)
    data_dir = tmp_path / "data"
    scenario.dump(data_dir)
    out = tmp_path / "out"
    run_pipeline(validate_config({
        "observed_grid": str(data_dir / "observed.asc"),
        "covariate_layers": [str(data_dir / f"cov{i:02d}.asc")
                             for i in range(1, 16)],
        "output_dir": str(out),
        "method": "rf",
        "ntree": 5,
        "mtry": "tune",
        "mtry_grid": list(range(2, 15)),
        "folds": 10,
        "fine_factor": 2,
    }))
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    tuned = derived.get("tuned_mtry")
    tune_ok = tuned is not None and 2 <= tuned <= 14 and derived["mtry_used"] == tuned

    ok = deterministic and oob_ok and tune_ok
    _report(5, ok,
            f"serialization bit-identical across reruns and 1 vs 4 workers "
            f"({deterministic}); single-covariate oob_rmse "
            f"{forest.oob_rmse:.2e} < 0.01; tuned mtry {tuned} in [2, 14] "
            f"recorded in manifest")


def test_criterion_06_pipeline_self_consistency():
    scenario = make_scenario(seed=606, fine_shape=(64, 64), coarse_factor=4,
                             noise_stdev=0.0, gap_fraction=0.0)
    queries = grid_centroids(scenario.truth)
    cells = scenario.observed.cell_numbers(queries.lon, queries.lat)
    assert (cells >= 0).all()
    pred = scenario.observed.values.ravel()[cells]
    ev = holdout_eval(scenario, queries.with_target(pred))
    residual_vals = ev.report.residual.values[ev.report.observed.data_mask]
    residual_zero = bool((residual_vals == 0.0).all())
    ok = residual_zero and ev.report.r2 == 1.0 and ev.report.rmse == 0.0
    _report(6, ok,
            f"containing-cell predictor: residual identically 0 "
            f"({residual_zero}), r2 = {ev.report.r2!r} (exact 1.0), "
            f"rmse = {ev.report.rmse!r} (exact 0.0)")


def test_criterion_07_residual_harmonization_oracle():
    rng = np.random.default_rng(707)
    worst_r2 = worst_rmse = worst_rel = 0.0
    for _ in range(20):
        nrows = int(rng.integers(4, 12))
        ncols = int(rng.integers(4, 12))
        obs_vals = rng.uniform(0.05, 0.5, (nrows, ncols))
        agg_vals = obs_vals + rng.normal(0, 0.05, (nrows, ncols))
        gaps = rng.random((nrows, ncols)) < 0.15
        obs_vals[gaps] = -9999.0
        header = dict(ncols=ncols, nrows=nrows, xll=0.0, yll=0.0,
                      cellsize=0.25, nodata=-9999.0)
        observed = Grid(values=obs_vals, **header)
        aggregated = Grid(values=agg_vals, **header)
        report = residual_report(aggregated, observed)

        mask = observed.data_mask
        a = agg_vals[mask]
        o = obs_vals[mask]
        # textbook Pearson, written out with explicit sums
        r_num = np.sum((a - a.mean()) * (o - o.mean()))
        r_den = np.sqrt(np.sum((a - a.mean()) ** 2) * np.sum((o - o.mean()) ** 2))
        worst_r2 = max(worst_r2, abs(report.r2 - (r_num / r_den) ** 2))
        worst_rmse = max(worst_rmse,
                         abs(report.rmse - np.sqrt(np.mean((a - o) ** 2))))
        nz = mask & (obs_vals != 0.0)
        rel = report.relative_residual.values[nz]
        worst_rel = max(worst_rel, float(np.abs(
            rel - (agg_vals[nz] - obs_vals[nz]) / obs_vals[nz]).max()))
    ok = worst_r2 < 1e-12 and worst_rmse < 1e-12 and worst_rel < 1e-15
    _report(7, ok,
            f"20 grid pairs: r2 dev {worst_r2:.2e} < 1e-12, rmse dev "
            f"{worst_rmse:.2e} < 1e-12, relative-residual dev "
            f"{worst_rel:.2e} < 1e-15 against textbook formulas")


def test_criterion_08_directional_echo():
    start = time.perf_counter()
    results = []
    for seed in range(10):
        scenario = make_scenario(seed=seed, fine_shape=(128, 128),
                                 coarse_factor=8, n_covariates=4,
                                 noise_stdev=0.01, gap_fraction=0.2)
        layers = list(scenario.covariate_layers)
        train = grid_to_points(scenario.observed)
        train_cov = sample_covariates(train, layers)
        queries = grid_centroids(scenario.truth)
        queries_cov = sample_covariates(queries, layers)
        space = FeatureSpace.fit("coords", train)

        knn_pred = knn_predict(train, queries, KnnConfig(k=12), space)
        hyppo_pred = hyppo_predict(train, queries,
                                   HyppoConfig(k=12, max_degree=2), space,
                                   target_range=(0.0, 1.0))
        forest = rf_fit(train_cov, RfConfig(ntree=200, mtry=2, min_leaf=5,
                                            seed=seed))
        rf_pred = np.clip(rf_predict(forest, queries_cov), 0.0, 1.0)

        results.append((
            holdout_eval(scenario, queries.with_target(knn_pred)).truth.rmse,
            holdout_eval(scenario, queries.with_target(hyppo_pred)).truth.rmse,
            holdout_eval(scenario, queries_cov.with_target(rf_pred)).truth.rmse,
        ))
    elapsed = time.perf_counter() - start

    knn_rmse, hyppo_rmse, rf_rmse = (np.array(col) for col in zip(*results))
    means_ok = (hyppo_rmse.mean() <= knn_rmse.mean()
                and rf_rmse.mean() <= knn_rmse.mean())
    per_seed = (hyppo_rmse <= knn_rmse) & (rf_rmse <= knn_rmse)
    failing = [int(s) for s in np.nonzero(~per_seed)[0]]
    ok = means_ok and int(per_seed.sum()) >= 7 and elapsed < 180.0
    _report(8, ok,
            f"mean truth-rmse knn {knn_rmse.mean():.4f} vs hyppo "
            f"{hyppo_rmse.mean():.4f} vs rf {rf_rmse.mean():.4f}; both beat "
            f"knn on {int(per_seed.sum())}/10 seeds (>= 7 required; failing "
            f"seeds {failing}); {elapsed:.1f} s < 180 s")


def test_criterion_09_buffer_behavior(tmp_path):
    scenario = make_scenario(seed=909, fine_shape=(160, 160), coarse_factor=8,
                             n_covariates=0, noise_stdev=0.0, gap_fraction=0.0)
    data_dir = tmp_path / "data"
    scenario.dump(data_dir)
    extent = 160 * scenario.truth.cellsize / 2.0
    margin = 0.5
    super_region = Region(rings=(
        ((-extent - margin, -extent - margin), (extent + margin, -extent - margin),
         (extent + margin, extent + margin), (-extent - margin, extent + margin)),
    ), name="super")
    write_region(super_region, data_dir / "super.geojson")

    counts = []
    raster_ok = True
    runs = (
        ("buffer0", str(data_dir / "region.geojson"), 0.0),
        ("buffer100", str(data_dir / "region.geojson"), 100.0),
        ("super", str(data_dir / "super.geojson"), 0.0),
    )
    for name, region_file, buffer_km in runs:
        out = tmp_path / name
        run_pipeline(validate_config({
            "observed_grid": str(data_dir / "observed.asc"),
            "output_dir": str(out),
            "method": "knn",
            "k": 3,
            "fine_factor": 2,
            "region_file": region_file,
            "buffer_km": buffer_km,
            "report_region_file": str(data_dir / "region.geojson"),
        }))
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        counts.append(derived["train_count_after_clip"])
        pred = read_ascii_grid(out / "prediction.asc")
        region = read_region(data_dir / "region.geojson")
        rows, cols = np.nonzero(pred.data_mask)
        inside = all(contains(region, *pred.centroid(int(r), int(c)))
                     for r, c in zip(rows[:: max(1, len(rows) // 40)],
                                     cols[:: max(1, len(cols) // 40)]))
        raster_ok = raster_ok and pred.data_mask.any() and inside
    strictly_increasing = counts[0] < counts[1] < counts[2]
    ok = strictly_increasing and raster_ok
    _report(9, ok,
            f"training counts strictly increase {counts[0]} < {counts[1]} < "
            f"{counts[2]} (buffer 0 -> 100 km -> super-region); all rasters "
            f"valid and clipped to the reporting region ({raster_ok})")


def test_criterion_10_file_format_round_trips(tmp_path):
    rng = np.random.default_rng(1010)
    round_trip_ok = True
    for i in range(100):
        grid = random_grid(rng)
        path = tmp_path / f"grid_{i}.asc"
        write_ascii_grid(grid, path)
        back = read_ascii_grid(path)
        if not (back == grid):
            round_trip_ok = False
            break

    square = {"type": "Polygon",
              "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}
    annulus = {"type": "Polygon",
               "coordinates": [
                   [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]],
                   [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]]}
    (tmp_path / "square.geojson").write_text(json.dumps(square))
    (tmp_path / "annulus.geojson").write_text(json.dumps(annulus))
    square_rings = len(read_region(tmp_path / "square.geojson").rings)
    annulus_rings = len(read_region(tmp_path / "annulus.geojson").rings)
    parse_ok = square_rings == 1 and annulus_rings == 2

    rejected = 0
    for bad in (
        {"type": "Feature", "geometry": {"type": "LineString",
                                         "coordinates": [[0, 0], [1, 1]]}},
        {"type": "Feature", "geometry": {"type": "MultiPolygon",
                                         "coordinates": []}},
    ):
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps(bad))
        try:
            read_region(path)
        except ParseError:
            rejected += 1
    reject_ok = rejected == 2

    ok = round_trip_ok and parse_ok and reject_ok
    _report(10, ok,
            f"100 random grids round-trip bit-exactly ({round_trip_ok}); "
            f"square and annulus polygons parse ({parse_ok}); LineString and "
            f"MultiPolygon rejected ({reject_ok})")
