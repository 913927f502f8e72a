import hashlib
import importlib.util
import json
import logging
import platform
import re
import shutil
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from finegrid import (
    EngineError,
    FeatureSpace,
    HyppoConfig,
    KnnConfig,
    ParseError,
    RfConfig,
    UsageError,
    contains,
    default_mtry_grid,
    hyppo_predict_with_degrees,
    knn_predict,
    load_config,
    make_scenario,
    read_ascii_grid,
    read_forest,
    read_pca_sidecar,
    read_ppm,
    read_region,
    rf_predict,
    run_pipeline,
    sample_covariates,
    tune_mtry,
    validate_config,
    write_ascii_grid,
    write_region,
)
import finegrid
import finegrid.models.forest as forest_module
import finegrid.models.hyppo as hyppo_module
from finegrid.grid import grid_centroids
from finegrid.models.features import neighbor_search
from finegrid.pipeline import _SCHEMA, OUTPUT_FILES, _predict

from conftest import logged_facts, random_table, search_tables


def dump_scenario(tmp_path, **kwargs):
    defaults = dict(seed=29, fine_shape=(32, 32), coarse_factor=4,
                    n_covariates=2, noise_stdev=0.0, gap_fraction=0.1)
    defaults.update(kwargs)
    scenario = make_scenario(**defaults)
    data_dir = tmp_path / "data"
    scenario.dump(data_dir)
    return scenario, data_dir


def base_config(data_dir, out_dir, **kwargs):
    cfg = {
        "observed_grid": str(data_dir / "observed.asc"),
        "output_dir": str(out_dir),
        "method": "knn",
        "k": 3,
        "fine_factor": 2,
    }
    cfg.update(kwargs)
    return cfg


def facts_in_order(caplog, result):
    """The facts a run logged, checked by logged_facts, are its derived
    facts in the order it recorded them."""
    messages = [r.getMessage() for r in caplog.records]
    return logged_facts(messages, result.output_dir) == list(result.manifest["derived"])


def output_digest(out_dir):
    digest = {}
    for path in sorted(out_dir.iterdir()):
        digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


class TestValidateConfig:
    def ok(self, **kwargs):
        cfg = {"observed_grid": "obs.asc", "output_dir": "out", "method": "knn"}
        cfg.update(kwargs)
        return cfg

    def test_minimal_accepted(self):
        cfg = validate_config(self.ok())
        assert cfg.method == "knn"
        assert cfg.settings["k"] == 10
        assert cfg.settings["fine_factor"] == 27
        assert cfg.settings["clamp"] == [0.0, 1.0]

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="neighbours"):
            validate_config(self.ok(neighbours=5))

    def test_method_required(self):
        with pytest.raises(UsageError, match="method"):
            validate_config({"observed_grid": "o.asc", "output_dir": "out"})
        with pytest.raises(UsageError, match="method"):
            validate_config(self.ok(method="kriging"))

    def test_output_dir_required(self):
        with pytest.raises(UsageError, match="output_dir"):
            validate_config({"observed_grid": "o.asc", "method": "knn"})

    def test_exactly_one_observed_source(self):
        with pytest.raises(UsageError, match="exactly one"):
            validate_config(self.ok(daily_grids=["a.asc"]))
        with pytest.raises(UsageError, match="exactly one"):
            validate_config({"output_dir": "out", "method": "knn"})

    def test_type_errors(self):
        with pytest.raises(UsageError, match="'k'"):
            validate_config(self.ok(k="ten"))
        with pytest.raises(UsageError, match="'seed'"):
            validate_config(self.ok(seed=True))
        with pytest.raises(UsageError, match="'pca'"):
            validate_config(self.ok(pca="yes"))

    def test_rf_with_coords_rejected(self):
        with pytest.raises(UsageError, match="covariates"):
            validate_config(self.ok(method="rf", feature_mode="coords"))

    def test_feature_mode_defaults(self):
        assert validate_config(self.ok()).settings["feature_mode"] == "coords"
        assert (validate_config(self.ok(method="hyppo")).settings["feature_mode"]
                == "coords")
        rf = validate_config(self.ok(method="rf",
                                     covariate_layers=["c.asc"]))
        assert rf.settings["feature_mode"] == "covariates"

    def test_fine_factor_header_exclusive(self):
        header = {"ncols": 4, "nrows": 4, "xll": 0, "yll": 0, "cellsize": 1.0}
        with pytest.raises(UsageError, match="at most one"):
            validate_config(self.ok(fine_factor=3, fine_header=header))
        cfg = validate_config(self.ok(fine_header=header))
        assert cfg.settings["fine_factor"] is None
        with pytest.raises(UsageError, match="a fine_factor or a fine_header"):
            validate_config(self.ok(fine_factor=None))

    def test_clamp_validation(self):
        with pytest.raises(UsageError, match="clamp"):
            validate_config(self.ok(clamp=[0.0]))
        with pytest.raises(UsageError, match="clamp"):
            validate_config(self.ok(clamp=[1.0, 0.0]))
        cfg = validate_config(self.ok(clamp=None))
        assert cfg.settings["clamp"] is None

    def test_weighting_validation(self):
        with pytest.raises(UsageError, match="weighting"):
            validate_config(self.ok(weighting="gaussian"))

    @pytest.mark.parametrize("overrides, message", [
        ({"method": "knn", "k": 0}, "k must be at least 1"),
        ({"method": "hyppo", "k": 1}, "k >= 2"),
        ({"method": "hyppo", "max_degree": -1}, "max_degree"),
        ({"method": "rf", "ntree": 0}, "ntree"),
        ({"method": "rf", "min_leaf": 0}, "min_leaf"),
        ({"method": "rf", "mtry": 0}, "mtry"),
        ({"method": "rf", "mtry": "auto"}, "mtry"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "yll": 0, "cellsize": 1.0}},
         "fine_header is missing key.* xll"),
    ], ids=["knn-k0", "hyppo-k1", "hyppo-degree-1", "rf-ntree0", "rf-min-leaf0", "rf-mtry0",
            "rf-mtry-auto", "header-no-xll"])
    def test_bad_model_settings_fail_validation(self, overrides, message):
        with pytest.raises(UsageError, match=message):
            validate_config(self.ok(**overrides))

    @pytest.mark.parametrize("overrides, key", [
        ({"folds": 0}, "folds"),
        ({"folds": 1}, "folds"),
        ({"mtry_grid": [0]}, "mtry_grid"),
        ({"mtry_grid": ["a"]}, "mtry_grid"),
        ({"mtry_grid": [5]}, "mtry_grid"),
        ({"mtry_grid": [True]}, "mtry_grid"),
        ({"mtry": 5}, "mtry"),
        ({"feature_mode": "coords+covariates"}, "feature_mode"),
        ({"covariate_layers": []}, "covariate_layers"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": "abc", "yll": 0, "cellsize": 1.0}},
         "fine_header.xll"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": 0, "yll": 0, "cellsize": -1}},
         "fine_header.cellsize"),
        ({"fine_header": {"ncols": 16.7, "nrows": 4, "xll": 0, "yll": 0, "cellsize": 1.0}},
         "fine_header.ncols"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": 0, "yll": 0, "cellsize": 1.0,
                          "dx": 1.0}}, "fine_header"),
        ({"min_count": 0}, "min_count"),
        ({"buffer_km": -5}, "buffer_km"),
        ({"covariate_layers": [1]}, "covariate_layers"),
        ({"method": "knn", "pca": True, "covariate_layers": []}, "pca"),
        ({"buffer_km": float("nan")}, "buffer_km"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": float("nan"), "yll": 0,
                          "cellsize": 1.0}}, "fine_header.xll"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": 0, "yll": float("nan"),
                          "cellsize": 1.0}}, "fine_header.yll"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": float("-inf"), "yll": 0,
                          "cellsize": 1.0}}, "fine_header.xll"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": 0, "yll": 0,
                          "cellsize": float("inf")}}, "fine_header.cellsize"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": 10**400, "yll": 0,
                          "cellsize": 1.0}}, "fine_header.xll"),
        ({"fine_header": {"ncols": 4, "nrows": 4, "xll": 0, "yll": 0, "cellsize": 1.0,
                          "nodata": float("nan")}}, "fine_header.nodata"),
        ({"mtry_grid": []}, "mtry_grid"),
        ({"buffer_km": 5.0}, "buffer_km"),
        ({"min_count": 2}, "min_count"),
    ], ids=["folds0", "folds1", "grid0", "grid-str", "grid-above-layers", "grid-bool",
            "mtry-above-layers", "rf-coords+covariates", "rf-no-layers", "header-xll-str",
            "header-cellsize-neg", "header-ncols-float", "header-unknown-key", "min-count0",
            "buffer-neg", "layer-not-path", "pca-no-layers", "buffer-nan", "header-xll-nan",
            "header-yll-nan", "header-xll-inf", "header-cellsize-inf", "header-xll-huge-int",
            "header-nodata-nan", "grid-empty", "buffer-no-region", "min-count-no-daily"])
    def test_config_fails_validation_naming_the_key(self, overrides, key):
        # each of these passed validation and then failed in a stage, or ran
        # with a value the engine changed
        cfg = self.ok(method="rf", ntree=3, covariate_layers=["c1.asc", "c2.asc"])
        cfg.update(overrides)
        with pytest.raises(UsageError, match=re.escape(key)):
            validate_config(cfg)

    def test_readme_config_table_lists_schema_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
        assert sorted(keys) == sorted(_SCHEMA)

    def test_load_config_resolves_relative_paths(self, tmp_path):
        (tmp_path / "cfg").mkdir()
        cfg_path = tmp_path / "cfg" / "run.json"
        cfg_path.write_text(json.dumps(self.ok()))
        cfg = load_config(cfg_path)
        assert cfg.resolve(cfg.settings["observed_grid"]) == tmp_path / "cfg" / "obs.asc"

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(UsageError, match="JSON"):
            load_config(path)


class TestRunKnn:
    def test_factor1_k1_reproduces_observed(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        cfg = validate_config(base_config(data_dir, out, k=1, fine_factor=1))
        result = run_pipeline(cfg)
        pred = read_ascii_grid(out / "prediction.asc")
        obs = scenario.observed
        mask = obs.data_mask
        # each non-gap centroid finds itself at distance zero
        np.testing.assert_array_equal(pred.values[mask], obs.values[mask])
        # gap cells are filled, not nodata
        assert pred.data_mask.all()
        assert result.report.r2 == 1.0
        assert result.report.rmse == 0.0

    def test_outputs_complete(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        run_pipeline(validate_config(base_config(data_dir, out)))
        for name in OUTPUT_FILES:
            assert (out / name).exists(), name

    def test_logs_metrics_instead_of_printing(self, tmp_path, capsys, caplog):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        with caplog.at_level("INFO", logger="finegrid"):
            result = run_pipeline(validate_config(base_config(data_dir, out)))
        assert capsys.readouterr().out == ""
        assert facts_in_order(caplog, result)

    def test_stage_record_counts_logged_at_info(self, tmp_path, caplog):
        # every count is logged: sampling, region clip, report clip, pca,
        # and the pca eigenvalues beside them
        _, data_dir = dump_scenario(tmp_path, n_covariates=3)
        out = tmp_path / "out"
        region = str(data_dir / "region.geojson")
        with caplog.at_level("INFO", logger="finegrid"):
            result = run_pipeline(validate_config(base_config(
                data_dir, out, pca=True, region_file=region, buffer_km=20.0,
                report_region_file=region,
                covariate_layers=[str(data_dir / f"cov{i:02d}.asc") for i in (1, 2, 3)])))
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        counts = [derived[key] for key in (
            "train_count_after_clip", "predict_count_after_clip", "pca_retained",
            "report_count")]
        assert facts_in_order(caplog, result)
        eigenvalues = json.dumps(derived["pca_eigenvalues"])
        assert f"pca_eigenvalues: {eigenvalues}" in [r.getMessage() for r in caplog.records]
        assert all(r.levelname == "INFO" for r in caplog.records)
        assert 0 < counts[1] < derived["predict_count_initial"]
        assert 0 < counts[3] < counts[1]

    def test_stage_wall_times_logged_at_debug(self, tmp_path, caplog):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        stages = ["setup", "load-observed", "load-covariates", "load-region",
                  "assemble-training", "fine-grid", "clip", "pca", "model",
                  "write-prediction", "analysis", "manifest"]
        manifests = []
        for render in (False, True, True):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="finegrid"):
                run_pipeline(validate_config(base_config(data_dir, out, render=render)))
            timed = [re.fullmatch(r"stage ([a-z-]+): \d+\.\d{6} s, ru_maxrss \d+\.\d MB",
                                  r.getMessage())
                     for r in caplog.records if r.levelname == "DEBUG"]
            assert all(timed)
            # one line per stage that ran, in order; render runs only when asked
            assert [m[1] for m in timed] == stages[:-1] + ["render"] * render + stages[-1:]
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[1] == manifests[2]

    def test_stage_line_leaves_out_rss_without_resource(self, tmp_path, caplog, monkeypatch):
        # where the resource module is missing (Windows) the line is the wall
        # time alone; the manifest never carries either
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        run_pipeline(validate_config(base_config(data_dir, out)))
        manifest = (out / "manifest.json").read_bytes()
        monkeypatch.setitem(sys.modules, "resource", None)
        with caplog.at_level("DEBUG", logger="finegrid"):
            run_pipeline(validate_config(base_config(data_dir, out)))
        lines = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert len(lines) == 12
        assert all(re.fullmatch(r"stage [a-z-]+: \d+\.\d{6} s", line) for line in lines)
        assert (out / "manifest.json").read_bytes() == manifest

    def test_write_prediction_stage_memory(self, tmp_path):
        # traced peak of the write-prediction stage on a 256 x 256 fine grid:
        # the predictions' lon, lat and target, the raster, and the cell
        # lookup's two float columns and masks, 6.5 floats a cell, plus
        # 0.5 MB. A nodata raster held all run, a NaN target column, or the
        # lookup's int64 rows and columns and their copies do not fit
        make_scenario(3, (256, 256), coarse_factor=8, n_covariates=0,
                      gap_fraction=0.1).dump(tmp_path / "data")
        cfg = validate_config(base_config(tmp_path / "data", tmp_path / "out", k=4,
                                          fine_factor=8))
        peaks = {}

        class StagePeaks(logging.Handler):
            def emit(self, record):
                if record.getMessage().startswith("stage "):
                    peaks[record.getMessage().split()[1]] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.reset_peak()

        handler = StagePeaks(level=logging.DEBUG)
        logger = logging.getLogger("finegrid")
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        tracemalloc.start()
        try:
            run_pipeline(cfg)
        finally:
            tracemalloc.stop()
            logger.removeHandler(handler)
            logger.setLevel(level)
        assert peaks["write-prediction:"] <= 8 * 256 * 256 * 6.5 + 2**19

    def test_full_featured_knn_pinned_digests(self, tmp_path):
        # region with a 50 km buffer, reporting region, PCA and render on a
        # small scenario; every output but the manifest, which names the
        # paths, is pinned to the bytes earlier releases wrote
        make_scenario(7, (64, 64), coarse_factor=8, n_covariates=4, noise_stdev=0.01,
                      gap_fraction=0.2).dump(tmp_path / "data")
        data = tmp_path / "data"
        out = tmp_path / "out"
        run_pipeline(validate_config({
            "observed_grid": str(data / "observed.asc"),
            "covariate_layers": [str(data / f"cov{i:02d}.asc") for i in range(1, 5)],
            "region_file": str(data / "region.geojson"), "buffer_km": 50.0,
            "report_region_file": str(data / "region.geojson"),
            "output_dir": str(out), "method": "knn", "k": 6, "weighting": "inverse-distance",
            "feature_mode": "coords+covariates", "pca": True, "render": True, "fine_factor": 8,
        }))
        digests = output_digest(out)
        del digests["manifest.json"]
        assert digests == {
            "aggregated.asc": "afb8368caa299d6134709e39f84dfe00720b8eb15ffc8d545f15c1f00c17e016",
            "aggregated.ppm": "e6e0baf3bc74bb913a4b4e0a97bbad441f3037efeb157ff30db31ef933afb405",
            "aggregated.ppm.legend.txt":
                "e9780f6f5027f2434f828ac06dc2478045df1f9ad84f38165748b8b48d77b800",
            "metrics.txt": "40278a4b2cf2c68a375baa2b7fced25dbd253225f8384ba57e66ee458c2f0649",
            "pca_model.csv": "887869a25f1791750aadcfd8ef7d80289b1226ba9c77f43998bed39a79d96364",
            "prediction.asc": "ff7090cd596a8df53dd71f16a0638877cdd794dcf51e58a0844b69d23659c46c",
            "prediction.ppm": "21567d7eb31c88bf807c2f8f63a24f5b3f8a2695abf1e4bbf816ab6cd1419d38",
            "prediction.ppm.legend.txt":
                "e57a50b75d0e7f1ec6f6bb8e890eb69ab2574bddbf1c637d8c74f8e75f63aa06",
            "relative_residual.asc":
                "d1d514722088d922a6a5939ebdd7be576fa7d6320586c6ed18dbe0b856fa1a6e",
            "relative_residual.ppm":
                "bb98d79411cb9d0556c5875913f59f7ff885e3088c5b5eda2277de27241a58ac",
            "relative_residual.ppm.legend.txt":
                "05d4e567e15d309f831ea2889deca73293efe259a2dbbfbdbff63d0276d05679",
            "residual.asc": "90a4f6d1f6329cdfa7fad943694e39bbff0f360d901c4e11141354160acf0f88",
            "residual.ppm": "ebd683ee4343bd7537e08a1fd76f95674b70c592c0c07971bf4d50b001a4081b",
            "residual.ppm.legend.txt":
                "ea64745c4b88406ad6d608ca48a8c4985e7ec6a0636f2953f0677c5962ed8515",
            "scatter.csv": "d68e8d0dd0dfe964e51ec7273f273c68ee6b875f18d8cabe2d0ac0ad542f1867",
        }

    def test_manifest_records_config_and_derived(self, tmp_path, caplog):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        with caplog.at_level("INFO", logger="finegrid"):
            result = run_pipeline(validate_config(base_config(data_dir, out)))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest == result.manifest
        assert manifest["config"]["method"] == "knn"
        assert manifest["config"]["k"] == 3
        assert manifest["derived"]["train_count_initial"] > 0
        assert manifest["derived"]["predict_count_initial"] == 64 * 4
        # the versions that produced the run, beside config and derived; not
        # a derived fact, so not logged
        assert set(manifest) == {"config", "derived", "environment"}
        assert manifest["environment"] == {
            "finegrid": finegrid.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        assert facts_in_order(caplog, result)

    def test_manifest_output_digests_match_files(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        run_pipeline(validate_config(base_config(
            data_dir, out, method="rf", ntree=3, mtry=1, pca=True, render=True,
            covariate_layers=[str(data_dir / "cov01.asc"), str(data_dir / "cov02.asc")])))
        recorded = json.loads((out / "manifest.json").read_text())["derived"]["output_digests"]
        on_disk = output_digest(out)
        del on_disk["manifest.json"]
        assert recorded == on_disk
        assert {"forest.txt", "pca_model.csv", "prediction.ppm.legend.txt"} <= set(recorded)

    def test_rerun_bit_identical(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "a"
        run_pipeline(validate_config(base_config(data_dir, out)))
        first = output_digest(out)
        run_pipeline(validate_config(base_config(data_dir, out)))
        second = output_digest(out)
        assert first == second

    def test_search_candidate_pairs_recorded(self, tmp_path):
        # knn and hyppo record the pairs their one search scanned; the
        # spatially compact tiles of SEARCH_TILE queries prune
        _, data_dir = dump_scenario(tmp_path, fine_shape=(64, 64))
        derived = {}
        for method in ("knn", "hyppo"):
            out = tmp_path / method
            run_pipeline(validate_config(base_config(data_dir, out, method=method, k=8)))
            derived[method] = json.loads((out / "manifest.json").read_text())["derived"]
        pairs = derived["knn"]["search_candidate_pairs"]
        assert pairs == derived["hyppo"]["search_candidate_pairs"]
        # the same search, in the same batches, re-sorts the same rows
        assert derived["knn"]["search_tie_resorts"] == derived["hyppo"]["search_tie_resorts"]
        nq, n = derived["knn"]["predict_count_initial"], derived["knn"]["train_count_initial"]
        assert 8 * nq <= pairs < n * nq

    def test_rerun_from_manifest_config(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(validate_config(base_config(data_dir, out_a)))
        recorded = json.loads((out_a / "manifest.json").read_text())["config"]
        recorded["output_dir"] = str(out_b)
        run_pipeline(validate_config(recorded))
        da, db = output_digest(out_a), output_digest(out_b)
        del da["manifest.json"], db["manifest.json"]  # differs in output_dir
        assert da == db

    def test_predictions_respect_clamp(self, tmp_path):
        # clamp=None leaves raw model output; the default clamp clips it
        _, data_dir = dump_scenario(tmp_path)
        raw_out, clamped_out = tmp_path / "raw", tmp_path / "clamped"
        run_pipeline(validate_config(base_config(
            data_dir, raw_out, method="hyppo", k=8, clamp=None)))
        run_pipeline(validate_config(base_config(
            data_dir, clamped_out, method="hyppo", k=8)))
        raw = read_ascii_grid(raw_out / "prediction.asc")
        clamped = read_ascii_grid(clamped_out / "prediction.asc")
        assert raw.data_mask.all() and clamped.data_mask.all()
        np.testing.assert_array_equal(clamped.values,
                                      np.clip(raw.values, 0.0, 1.0))
        vals = clamped.values[clamped.data_mask]
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestFineHeader:
    def derived_header(self, data_dir, factor=2):
        observed = read_ascii_grid(data_dir / "observed.asc")
        return {"ncols": observed.ncols * factor, "nrows": observed.nrows * factor,
                "xll": observed.xll, "yll": observed.yll,
                "cellsize": observed.cellsize / factor}

    def test_header_equal_to_fine_factor_gives_same_outputs(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        by_factor, by_header = tmp_path / "factor", tmp_path / "header"
        run_pipeline(validate_config(base_config(data_dir, by_factor, render=True)))
        cfg = base_config(data_dir, by_header, render=True,
                          fine_header=self.derived_header(data_dir))
        del cfg["fine_factor"]
        run_pipeline(validate_config(cfg))
        da, db = output_digest(by_factor), output_digest(by_header)
        del da["manifest.json"], db["manifest.json"]  # config differs in the two keys
        assert da == db
        derived = [json.loads((out / "manifest.json").read_text())["derived"]
                   for out in (by_factor, by_header)]
        assert derived[0] == derived[1]

    def test_nodata_override_reaches_prediction_only(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path)
        plain, override = tmp_path / "plain", tmp_path / "override"
        region = str(data_dir / "region.geojson")
        header = self.derived_header(data_dir)
        for out, extra in ((plain, {}), (override, {"nodata": -1.0})):
            cfg = base_config(data_dir, out, report_region_file=region,
                              fine_header={**header, **extra})
            del cfg["fine_factor"]
            run_pipeline(validate_config(cfg))
        a = read_ascii_grid(plain / "prediction.asc")
        b = read_ascii_grid(override / "prediction.asc")
        assert (a.nodata, b.nodata) == (scenario.observed.nodata, -1.0)
        # the report region leaves nodata cells; the override marks the same ones
        assert (~a.data_mask).any()
        np.testing.assert_array_equal(a.data_mask, b.data_mask)
        np.testing.assert_array_equal(a.values[a.data_mask], b.values[b.data_mask])
        for name in ("aggregated.asc", "residual.asc", "relative_residual.asc",
                     "scatter.csv", "metrics.txt"):
            assert (plain / name).read_bytes() == (override / name).read_bytes(), name
        assert read_ascii_grid(override / "aggregated.asc").nodata == scenario.observed.nodata

    def test_prediction_equal_to_nodata_refused(self, tmp_path):
        # at k 1 each fine cell takes its nearest observed cell's value, so a
        # nodata override equal to observed cell (0, 0)'s value would write
        # that cell's 8 x 8 fine cells as gaps
        scenario, data_dir = dump_scenario(tmp_path, seed=1, fine_shape=(64, 64),
                                           coarse_factor=8, n_covariates=0, gap_fraction=0.0)
        out = tmp_path / "out"
        header = self.derived_header(data_dir, factor=8)
        # the default nodata, -9999, lies outside the default clamp [0, 1]
        cfg = base_config(data_dir, out, k=1, fine_header=header)
        del cfg["fine_factor"]
        run_pipeline(validate_config(cfg))
        first = output_digest(out)
        clash = float(scenario.observed.values[0, 0])
        assert read_ascii_grid(out / "prediction.asc").nodata == -9999.0 != clash
        cfg["fine_header"] = {**header, "nodata": clash}
        with pytest.raises(EngineError, match=re.escape(
                f"stage write-prediction: 64 predicted value(s) equal the nodata value {clash!r}")):
            run_pipeline(validate_config(cfg))
        # the failed run leaves no staging directory and the earlier outputs as they were
        assert sorted(path.name for path in out.iterdir()) == sorted(first)
        assert output_digest(out) == first

    def test_residual_equal_to_nodata_refused(self, tmp_path):
        # at k 1 and fine_factor 1 every prediction at an observed cell is that
        # cell's value, so every residual is 0.0; with nodata 0.0 residual.asc
        # would hold no data cell while metrics.txt counted every pair
        scenario, data_dir = dump_scenario(tmp_path, seed=1, fine_shape=(32, 32),
                                           coarse_factor=4, n_covariates=0, gap_fraction=0.2)
        observed = scenario.observed
        assert (observed.values[observed.data_mask] != 0.0).all()
        zero = tmp_path / "observed_zero.asc"
        write_ascii_grid(replace(observed, nodata=0.0,
                                 values=np.where(observed.data_mask, observed.values, 0.0)), zero)
        out = tmp_path / "out"
        cfg = base_config(data_dir, out, k=1, fine_factor=1)
        run_pipeline(validate_config(cfg))
        first = output_digest(out)
        n = int(observed.data_mask.sum())
        assert (out / "metrics.txt").read_text().endswith(f" n={n}\n")
        cfg["observed_grid"] = str(zero)
        with pytest.raises(EngineError, match=re.escape(
                f"stage analysis: {n} residual value(s) equal the nodata value 0.0")):
            run_pipeline(validate_config(cfg))
        # the failed run leaves no staging directory and the earlier outputs as they were
        assert sorted(path.name for path in out.iterdir()) == sorted(first)
        assert output_digest(out) == first


class TestCovariatesAndPca:
    def test_pca_inert_for_coords_knn(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        plain_out = tmp_path / "plain"
        pca_out = tmp_path / "pca"
        run_pipeline(validate_config(base_config(data_dir, plain_out)))
        run_pipeline(validate_config(base_config(
            data_dir, pca_out, pca=True,
            covariate_layers=[str(data_dir / "cov01.asc"),
                              str(data_dir / "cov02.asc")])))
        a = read_ascii_grid(plain_out / "prediction.asc")
        b = read_ascii_grid(pca_out / "prediction.asc")
        np.testing.assert_array_equal(a.values, b.values)
        assert (pca_out / "pca_model.csv").exists()

    @pytest.mark.parametrize("pca", [False, True])
    def test_coords_mode_models_see_no_covariates(self, tmp_path, monkeypatch, pca):
        import finegrid.covariates as covariates_module
        import finegrid.pipeline as pipeline_module

        _, data_dir = dump_scenario(tmp_path)
        seen, transformed = [], []

        def recorded(name):
            original = getattr(pipeline_module, name)

            def call(train, queries, *args, **kwargs):
                seen.append((name, train.p, queries.p))
                return original(train, queries, *args, **kwargs)
            return call

        def transform(*args):
            transformed.append(args)
            return original_transform(*args)

        original_transform = covariates_module.pca_transform
        for name in ("knn_predict", "hyppo_predict_with_degrees"):
            monkeypatch.setattr(pipeline_module, name, recorded(name))
        monkeypatch.setattr(covariates_module, "pca_transform", transform)
        layers = [str(data_dir / "cov01.asc"), str(data_dir / "cov02.asc")]
        for method in ("knn", "hyppo"):
            out = tmp_path / method
            run_pipeline(validate_config(base_config(
                data_dir, out, method=method, k=8, pca=pca, covariate_layers=layers)))
            assert (out / "pca_model.csv").exists() == pca
        assert seen == [("knn_predict", 0, 0), ("hyppo_predict_with_degrees", 0, 0)]
        assert transformed == []
        # in covariate space both tables keep their covariates, or their scores
        run_pipeline(validate_config(base_config(
            data_dir, tmp_path / "cov", k=8, pca=pca, covariate_layers=layers,
            feature_mode="coords+covariates")))
        assert seen[-1][1] == seen[-1][2] > 0
        assert len(transformed) == 2 * pca

    def test_pca_manifest_entries(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path, n_covariates=3)
        out = tmp_path / "out"
        run_pipeline(validate_config(base_config(
            data_dir, out, method="rf", ntree=5, mtry=1, pca=True,
            covariate_layers=[str(data_dir / f"cov{i:02d}.asc")
                              for i in (1, 2, 3)])))
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        assert 1 <= derived["pca_retained"] <= 3
        assert len(derived["pca_eigenvalues"]) == 3
        assert derived["mtry_used"] == 1

    @pytest.mark.parametrize("mtry", [{"mtry": 2}, {"mtry": "tune", "mtry_grid": [1, 2]}])
    def test_mtry_above_pca_retained_fails_in_pca_stage(self, tmp_path, mtry):
        _, data_dir = dump_scenario(tmp_path, n_covariates=3)
        cfg = validate_config(base_config(
            data_dir, tmp_path / "out", method="rf", ntree=3, pca=True,
            covariate_layers=[str(data_dir / f"cov{i:02d}.asc") for i in (1, 2, 3)],
            **mtry))
        with pytest.raises(EngineError, match=r"stage pca: mtry 2 exceeds the 1 .* pca"):
            run_pipeline(cfg)

    def test_layers_sharing_a_stem_accepted(self, tmp_path):
        # columns are named by position, so no output depends on layer names
        _, data_dir = dump_scenario(tmp_path)
        (tmp_path / "other").mkdir()
        shutil.copy(data_dir / "cov02.asc", tmp_path / "other" / "cov01.asc")
        digests = []
        for name, second in (("apart", data_dir / "cov02.asc"),
                             ("same", tmp_path / "other" / "cov01.asc")):
            out = tmp_path / name
            run_pipeline(validate_config(base_config(
                data_dir, out, feature_mode="covariates", pca=True,
                covariate_layers=[str(data_dir / "cov01.asc"), str(second)])))
            digests.append({k: v for k, v in output_digest(out).items() if k != "manifest.json"})
        assert digests[0] == digests[1]

    def test_missing_covariates_for_rf(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        with pytest.raises(UsageError, match="method 'rf' with feature_mode 'covariates' "
                                             "needs covariate_layers"):
            validate_config(base_config(data_dir, tmp_path / "out",
                                        method="rf", ntree=3, mtry=1))


class TestRf:
    def test_forest_written_and_reusable(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        cfg = validate_config(base_config(
            data_dir, out, method="rf", ntree=8, mtry=1, fine_factor=1,
            covariate_layers=[str(data_dir / "cov01.asc"),
                              str(data_dir / "cov02.asc")]))
        run_pipeline(cfg)
        forest = read_forest(out / "forest.txt")
        assert forest.ntree == 8

        queries = grid_centroids(scenario.observed)
        queries = sample_covariates(queries, list(scenario.covariate_layers))
        pred = read_ascii_grid(out / "prediction.asc")
        cells = pred.cell_numbers(queries.lon, queries.lat)
        inside = cells >= 0
        raster_vals = pred.values.ravel()[cells[inside]]
        direct = np.clip(rf_predict(forest, queries), 0.0, 1.0)
        np.testing.assert_array_equal(raster_vals, direct[inside])

    def test_fixed_mtry_logged(self, tmp_path, caplog):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        with caplog.at_level("INFO", logger="finegrid"):
            result = run_pipeline(validate_config(base_config(
                data_dir, out, method="rf", ntree=3, mtry=1,
                covariate_layers=[str(data_dir / "cov01.asc"), str(data_dir / "cov02.asc")])))
        assert facts_in_order(caplog, result)
        # a fixed mtry is used as given, with no tuning facts
        derived = result.manifest["derived"]
        assert derived["mtry_used"] == 1
        assert not ({"tuned_mtry", "mtry_cv_rmse", "mtry_fold_rmse", "mtry_tune_groups"}
                    & derived.keys())

    def test_tuned_mtry_recorded(self, tmp_path, caplog):
        _, data_dir = dump_scenario(tmp_path, n_covariates=3)
        out = tmp_path / "out"
        cfg = validate_config(base_config(
            data_dir, out, method="rf", ntree=4, folds=3,
            covariate_layers=[str(data_dir / f"cov{i:02d}.asc") for i in (1, 2, 3)]))
        with caplog.at_level("INFO", logger="finegrid"):
            result = run_pipeline(cfg)
        manifest = (out / "manifest.json").read_bytes()
        derived = json.loads(manifest)["derived"]
        assert facts_in_order(caplog, result)
        assert derived["tuned_mtry"] == derived["mtry_used"]
        assert derived["tuned_mtry"] in (1, 2)
        cv_rmse = {int(c): rmse for c, rmse in derived["mtry_cv_rmse"].items()}
        assert list(cv_rmse) == default_mtry_grid(3)
        assert min(cv_rmse, key=cv_rmse.get) == derived["tuned_mtry"]
        # each candidate's mean fold RMSE is the mean of its 3 folds' RMSEs
        fold_rmse = {int(c): rmse for c, rmse in derived["mtry_fold_rmse"].items()}
        assert cv_rmse == {c: float(np.mean(rmse)) for c, rmse in fold_rmse.items()}
        assert all(len(rmse) == 3 for rmse in fold_rmse.values())
        # the 3 folds' 4 trees each fit one ROUTE_PAIRS group
        assert derived["mtry_tune_groups"] == [3]
        assert np.isfinite(derived["oob_rmse"])
        forest = read_forest(out / "forest.txt")

        def depth(tree, node=0):
            if tree.feature[node] < 0:
                return 0
            return 1 + max(depth(tree, tree.left[node]), depth(tree, tree.right[node]))

        assert derived["forest_nodes"] == sum(len(t.feature) for t in forest.trees)
        assert derived["forest_max_depth"] == max(depth(t) for t in forest.trees)
        assert derived["forest_max_depth"] > 0
        run_pipeline(cfg)
        assert (out / "manifest.json").read_bytes() == manifest

    def test_tuned_outputs_independent_of_workers(self, tmp_path, monkeypatch):
        # a small pair budget gives every routing pass many chunks to share
        monkeypatch.setattr(forest_module, "ROUTE_PAIRS", 64)
        _, data_dir = dump_scenario(tmp_path, n_covariates=3)
        out = tmp_path / "out"
        raw = base_config(
            data_dir, out, method="rf", ntree=6, folds=3, render=True,
            covariate_layers=[str(data_dir / f"cov{i:02d}.asc") for i in (1, 2, 3)])
        run_pipeline(validate_config(raw))
        out.rename(tmp_path / "serial")
        run_pipeline(validate_config({**raw, "workers": 3}))
        serial = json.loads((tmp_path / "serial" / "manifest.json").read_text())
        threaded = json.loads((out / "manifest.json").read_text())
        assert threaded["config"]["workers"] == 3
        threaded["config"]["workers"] = 1
        assert threaded == serial
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert "forest.txt" in names and "prediction.ppm" in names
        for name in names:
            if name != "manifest.json":
                assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_tuned_forest_pinned_digests(self, tmp_path):
        # the quick start's data and CI's tuned rerun config; the digests are
        # those the one-tree breadth-first reference grower of test_forest.py
        # gives, with its keyed feature draws, for both tuning and the fit
        make_scenario(7, (128, 128), coarse_factor=8, n_covariates=4, noise_stdev=0.01,
                      gap_fraction=0.2).dump(tmp_path / "data")
        out = tmp_path / "tune"
        run_pipeline(validate_config({
            "observed_grid": str(tmp_path / "data" / "observed.asc"),
            "covariate_layers": [str(tmp_path / "data" / f"cov{i:02d}.asc") for i in range(1, 5)],
            "output_dir": str(out), "method": "rf", "ntree": 30, "mtry": "tune", "folds": 5,
            "seed": 7, "fine_factor": 8,
        }))
        digests = output_digest(out)
        assert digests["forest.txt"] == (
            "6dd9891efea8c28aaf25205bfcb1ed02130c1d26e49f2257ba104676ff4dfeef")
        assert digests["prediction.asc"] == (
            "eb38a9fb005230bb9140a5154998c17a618e009f7e41f57108d2c4fa1a7de2b2")

    def test_deep_forest_pinned_digests(self, tmp_path):
        # CI's deep config: the quick start with one-record leaves, mtry 2, 30
        # trees and no PCA. Its trees exceed 64 leaves, so routing ANDs leaf
        # masks of more than one word
        make_scenario(7, (128, 128), coarse_factor=8, n_covariates=4, noise_stdev=0.01,
                      gap_fraction=0.2).dump(tmp_path / "data")
        out = tmp_path / "deep"
        run_pipeline(validate_config({
            "observed_grid": str(tmp_path / "data" / "observed.asc"),
            "covariate_layers": [str(tmp_path / "data" / f"cov{i:02d}.asc") for i in range(1, 5)],
            "region_file": str(tmp_path / "data" / "region.geojson"), "buffer_km": 50.0,
            "output_dir": str(out), "method": "rf", "ntree": 30, "mtry": 2, "min_leaf": 1,
            "seed": 7, "fine_factor": 8, "pca": False,
        }))
        trees = (out / "forest.txt").read_text().split("\ntree ")[1:]
        assert max(tree.count(" leaf ") for tree in trees) > 64
        digests = output_digest(out)
        assert digests["forest.txt"] == (
            "d8088d7ac8dfc35564af3f5d292cd477ad102ce78ef67d6c177db986b75d9f92")
        assert digests["prediction.asc"] == (
            "2495fb42322946a6e860334a6ff98c852170b79d39c925d0d53c26a427ac03f9")


class TestDailyGrids:
    def test_list_of_files_averaged(self, tmp_path, caplog):
        scenario, data_dir = dump_scenario(tmp_path, gap_fraction=0.0)
        obs = scenario.observed
        day1 = obs.with_values(obs.values + 0.01)
        day2 = obs.with_values(obs.values - 0.01)
        write_ascii_grid(day1, tmp_path / "day1.asc")
        write_ascii_grid(day2, tmp_path / "day2.asc")
        out = tmp_path / "out"
        cfg = base_config(data_dir, out, k=1, fine_factor=1)
        del cfg["observed_grid"]
        cfg["daily_grids"] = [str(tmp_path / "day1.asc"), str(tmp_path / "day2.asc")]
        with caplog.at_level("INFO", logger="finegrid"):
            result = run_pipeline(validate_config(cfg))
        pred = read_ascii_grid(out / "prediction.asc")
        expect = (day1.values + day2.values) / 2.0
        np.testing.assert_allclose(pred.values, expect, atol=1e-12)
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        assert derived["daily_grid_count"] == 2
        assert facts_in_order(caplog, result)
        assert "daily_grid_count: 2" in [r.getMessage() for r in caplog.records]

    def test_directory_form(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path, gap_fraction=0.0)
        days = tmp_path / "days"
        days.mkdir()
        write_ascii_grid(scenario.observed, days / "d01.asc")
        write_ascii_grid(scenario.observed, days / "d02.asc")
        out = tmp_path / "out"
        cfg = base_config(data_dir, out, k=1, fine_factor=1)
        del cfg["observed_grid"]
        cfg["daily_grids"] = [str(days)]
        run_pipeline(validate_config(cfg))
        pred = read_ascii_grid(out / "prediction.asc")
        np.testing.assert_array_equal(pred.values, scenario.observed.values)

    def test_empty_directory_is_stage_labeled(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        days = tmp_path / "days"
        days.mkdir()
        cfg = base_config(data_dir, tmp_path / "out")
        del cfg["observed_grid"]
        cfg["daily_grids"] = [str(days)]
        with pytest.raises(EngineError, match="stage load-observed: daily_grids matched no files"):
            run_pipeline(validate_config(cfg))

    def test_min_count_above_grids_found_is_stage_labeled(self, tmp_path, monkeypatch):
        import finegrid.pipeline as pipeline_module

        scenario, data_dir = dump_scenario(tmp_path, gap_fraction=0.0)
        days = tmp_path / "days"
        days.mkdir()
        write_ascii_grid(scenario.observed, days / "d01.asc")
        write_ascii_grid(scenario.observed, days / "d02.asc")
        cfg = base_config(data_dir, tmp_path / "out")
        del cfg["observed_grid"]
        cfg["daily_grids"] = [str(days)]
        # every cell has both days
        run_pipeline(validate_config({**cfg, "min_count": 2}))
        predicted = []
        monkeypatch.setattr(pipeline_module, "_predict", lambda *args: predicted.append(args))
        with pytest.raises(EngineError, match="stage load-observed: min_count 3 exceeds the 2 "
                                              "daily grid"):
            run_pipeline(validate_config({**cfg, "min_count": 3}))
        assert predicted == []


class TestRegions:
    def test_buffer_monotonicity_of_training_count(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path)
        counts = {}
        for name, buffer_km in (("none", 0.0), ("wide", 60.0)):
            out = tmp_path / name
            run_pipeline(validate_config(base_config(
                data_dir, out, region_file=str(data_dir / "region.geojson"),
                buffer_km=buffer_km)))
            derived = json.loads((out / "manifest.json").read_text())["derived"]
            counts[name] = derived["train_count_after_clip"]
        assert 0 < counts["none"] <= counts["wide"]
        assert counts["wide"] <= 64  # cannot exceed the coarse cell count

    def test_report_region_limits_output(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        run_pipeline(validate_config(base_config(
            data_dir, out,
            report_region_file=str(data_dir / "region.geojson"))))
        pred = read_ascii_grid(out / "prediction.asc")
        region = scenario.region
        rows, cols = np.nonzero(pred.data_mask)
        for r, c in zip(rows[:50], cols[:50]):
            lon, lat = pred.centroid(int(r), int(c))
            assert contains(region, lon, lat)
        # cells outside the reporting region are nodata
        assert not pred.data_mask.all()

    @pytest.mark.parametrize("settings", [
        pytest.param({"method": "knn", "k": 3}, id="knn"),
        pytest.param({"method": "hyppo", "k": 8, "max_degree": 2}, id="hyppo"),
        pytest.param({"method": "rf", "ntree": 5, "mtry": 1, "pca": True}, id="rf-pca"),
    ])
    def test_model_predicts_only_reported_cells(self, tmp_path, monkeypatch, settings):
        import finegrid.pipeline as pipeline_module
        from finegrid import Region
        scenario, data_dir = dump_scenario(tmp_path)
        layers = [str(data_dir / f"{name}.asc") for name in scenario.covariate_names]
        # the four fine cells of one observed data cell inside the region
        observed = scenario.observed
        h = 0.4 * observed.cellsize
        lon, lat = next(centroid for centroid in map(observed.centroid, *np.nonzero(
            observed.data_mask)) if contains(scenario.region, *centroid))
        write_region(Region(rings=(((lon - h, lat - h), (lon + h, lat - h), (lon + h, lat + h),
                                    (lon - h, lat + h)),)), tmp_path / "few.geojson")
        predict, sizes = pipeline_module._predict, []

        def counted_predict(cfg, training, prediction, derived):
            sizes.append(len(prediction))
            return predict(cfg, training, prediction, derived)

        monkeypatch.setattr(pipeline_module, "_predict", counted_predict)
        common = dict(settings, covariate_layers=layers,
                      region_file=str(data_dir / "region.geojson"), buffer_km=20.0)
        run_pipeline(validate_config(base_config(data_dir, tmp_path / "plain", **common)))
        plain = read_ascii_grid(tmp_path / "plain" / "prediction.asc")
        for name, region in (("region", data_dir / "region.geojson"),
                             ("few", tmp_path / "few.geojson")):
            out = tmp_path / name
            sizes.clear()
            run_pipeline(validate_config(base_config(
                data_dir, out, report_region_file=str(region), **common)))
            derived = json.loads((out / "manifest.json").read_text())["derived"]
            reported = read_ascii_grid(out / "prediction.asc")
            kept = reported.data_mask
            assert sizes == [derived["report_count"]] == [int(kept.sum())]
            assert reported.values[kept].tobytes() == plain.values[kept].tobytes()
            if settings["method"] == "hyppo":
                assert sum(derived["hyppo_degree_counts"].values()) == derived["report_count"]
            assert name != "few" or derived["report_count"] == 4

    def test_empty_clip_is_stage_labeled(self, tmp_path, monkeypatch):
        import finegrid.pipeline as pipeline_module
        from finegrid import Region
        _, data_dir = dump_scenario(tmp_path)
        far = Region(rings=(((50.0, 50.0), (51.0, 50.0), (51.0, 51.0),
                             (50.0, 51.0)),))
        write_region(far, tmp_path / "far.geojson")
        predicted = []
        monkeypatch.setattr(pipeline_module, "_predict", lambda *args: predicted.append(args))
        for key, message in (
            ("region_file", "stage clip: no training records remain"),
            ("report_region_file", "stage clip: no predictions fall inside"),
        ):
            cfg = validate_config(base_config(
                data_dir, tmp_path / "out", **{key: str(tmp_path / "far.geojson")}))
            with pytest.raises(EngineError, match=message):
                run_pipeline(cfg)
        assert predicted == []


class TestFailureCleanup:
    def test_all_nodata_observed_is_stage_labeled(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path)
        obs = scenario.observed
        write_ascii_grid(obs.with_values(np.full_like(obs.values, obs.nodata)),
                         data_dir / "observed.asc")
        cfg = validate_config(base_config(data_dir, tmp_path / "out"))
        with pytest.raises(EngineError, match="stage assemble-training: observed grid has no"):
            run_pipeline(cfg)

    @pytest.mark.parametrize("emptied", ["training", "prediction"])
    def test_sampling_that_empties_a_table_is_stage_labeled(self, tmp_path, monkeypatch,
                                                            emptied):
        import finegrid.pipeline as pipeline_module

        scenario, data_dir = dump_scenario(tmp_path)
        paths = [data_dir / f"{name}.asc" for name in scenario.covariate_names]
        cfg = base_config(data_dir, tmp_path / "out", method="rf", ntree=5, mtry=1,
                          covariate_layers=[str(path) for path in paths])
        if emptied == "training":
            # layers far from the observed grid cover no training record
            for path in paths:
                write_ascii_grid(replace(read_ascii_grid(path), xll=50.0, yll=50.0), path)
            message = "stage assemble-training: no training records remain after covariate"
        else:
            # a fine grid far from the layers covers no prediction cell
            observed = read_ascii_grid(data_dir / "observed.asc")
            del cfg["fine_factor"]
            cfg["fine_header"] = {"ncols": 16, "nrows": 16, "xll": 50.0, "yll": 50.0,
                                  "cellsize": observed.cellsize / 2}
            message = "stage fine-grid: no prediction records remain after covariate"
        predicted = []
        monkeypatch.setattr(pipeline_module, "_predict", lambda *args: predicted.append(args))
        with pytest.raises(EngineError, match=message):
            run_pipeline(validate_config(cfg))
        assert predicted == []

    def test_fine_grid_pairing_no_observed_cell_is_stage_labeled(self, tmp_path, monkeypatch):
        import finegrid.pipeline as pipeline_module

        _, data_dir = dump_scenario(tmp_path, seed=1, fine_shape=(64, 64), coarse_factor=8)
        # with no covariate layers nothing is sampled, so only the pairing
        # check sees that the fine grid lies far outside the observed one
        cfg = base_config(data_dir, tmp_path / "out", k=4)
        del cfg["fine_factor"]
        cfg["fine_header"] = {"ncols": 16, "nrows": 16, "xll": 50.0, "yll": 50.0,
                              "cellsize": 0.025}
        predicted = []
        monkeypatch.setattr(pipeline_module, "_predict", lambda *args: predicted.append(args))
        with pytest.raises(EngineError, match="stage clip: no prediction cell falls in a "
                                              "data cell of the observed grid"):
            run_pipeline(validate_config(cfg))
        assert predicted == []
        assert not any((tmp_path / "out").iterdir())

    def test_report_region_pairing_no_observed_cell_is_stage_labeled(self, tmp_path,
                                                                     monkeypatch):
        import finegrid.pipeline as pipeline_module
        from finegrid import Region
        scenario, data_dir = dump_scenario(tmp_path)
        # a reporting region holding only the fine cells of one gap cell
        observed = scenario.observed
        row, col = np.argwhere(~observed.data_mask)[0]
        lon, lat = observed.centroid(int(row), int(col))
        h = 0.4 * observed.cellsize
        write_region(Region(rings=(((lon - h, lat - h), (lon + h, lat - h), (lon + h, lat + h),
                                    (lon - h, lat + h)),)), tmp_path / "gap.geojson")
        cfg = validate_config(base_config(data_dir, tmp_path / "out",
                                          report_region_file=str(tmp_path / "gap.geojson")))
        predicted = []
        monkeypatch.setattr(pipeline_module, "_predict", lambda *args: predicted.append(args))
        with pytest.raises(EngineError, match="stage clip: no prediction cell falls in a "
                                              "data cell of the observed grid"):
            run_pipeline(cfg)
        assert predicted == []
        assert not any((tmp_path / "out").iterdir())

    def test_error_carries_stage_and_removes_outputs(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        cfg = validate_config(base_config(
            data_dir, out,
            covariate_layers=[str(data_dir / "missing.asc")]))
        with pytest.raises(EngineError, match="stage load-covariates"):
            run_pipeline(cfg)
        assert not any(out.iterdir())

    def test_non_finite_layer_cell_names_its_file(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path, n_covariates=4)
        paths = [data_dir / f"{name}.asc" for name in scenario.covariate_names]
        lines = paths[2].read_text().splitlines()
        lines[7] = " ".join(["nan"] + lines[7].split()[1:])
        paths[2].write_text("\n".join(lines) + "\n")
        cfg = validate_config(base_config(
            data_dir, tmp_path / "out", covariate_layers=[str(path) for path in paths]))
        with pytest.raises(EngineError, match=r"stage load-covariates: non-finite data value"
                                              rf".* \({re.escape(str(paths[2]))}:8\)"):
            run_pipeline(cfg)

    def test_out_of_range_observed_rejected(self, tmp_path):
        scenario, data_dir = dump_scenario(tmp_path, gap_fraction=0.0)
        hot = scenario.observed.with_values(scenario.observed.values + 2.0)
        write_ascii_grid(hot, tmp_path / "hot.asc")
        cfg = validate_config(base_config(
            data_dir, tmp_path / "out", observed_grid=str(tmp_path / "hot.asc")))
        with pytest.raises(EngineError, match="stage load-observed"):
            run_pipeline(cfg)

    @pytest.mark.parametrize("bad", ["nan", "overflow"])
    def test_non_finite_covariate_fails_in_model_stage(self, tmp_path, monkeypatch, bad):
        scenario, data_dir = dump_scenario(tmp_path)
        paths = [data_dir / f"{name}.asc" for name in scenario.covariate_names]
        if bad == "nan":
            # a layer file cannot carry NaN (the reader refuses it), so
            # put it in the sampled table, as a table built in code could
            import finegrid.pipeline as pipeline_module

            def sample_with_nan(points, layers):
                table = sample_covariates(points, layers)
                table.covariates[len(table) // 2, 0] = np.nan
                return table

            monkeypatch.setattr(pipeline_module, "sample_covariates", sample_with_nan)
        else:
            # finite in the file, infinite once scaled
            layer = read_ascii_grid(paths[0])
            values = layer.values.copy()
            values[5, 7] = 1e308
            write_ascii_grid(layer.with_values(values), paths[0])
        out = tmp_path / "out"
        # fine_factor 4 puts one prediction point in every covariate cell
        cfg = validate_config(base_config(
            data_dir, out, fine_factor=4, feature_mode="covariates",
            covariate_layers=[str(path) for path in paths]))
        with pytest.raises(EngineError,
                           match=r"stage model: feature mode 'covariates': 1 non-finite"):
            run_pipeline(cfg)
        assert not any(out.iterdir())

    def test_late_failure_removes_earlier_files(self, tmp_path, monkeypatch):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        cfg = validate_config(base_config(data_dir, out))

        import finegrid.pipeline as pipeline_module

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(pipeline_module, "scatter_export", boom)
        with pytest.raises(EngineError, match="stage analysis"):
            run_pipeline(cfg)
        assert not any(out.iterdir())


    def test_failed_rerun_keeps_previous_outputs(self, tmp_path, monkeypatch):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        run_pipeline(validate_config(base_config(data_dir, out, render=True)))
        first = output_digest(out)

        import finegrid.pipeline as pipeline_module

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        # a different k changes every raster the rerun writes before it fails
        monkeypatch.setattr(pipeline_module, "render_heatmap", boom)
        with pytest.raises(EngineError, match="stage render"):
            run_pipeline(validate_config(base_config(data_dir, out, k=4, render=True)))
        assert sorted(path.name for path in out.iterdir()) == sorted(first)
        assert output_digest(out) == first


class TestRerunOutputs:
    def rf_then_knn(self, tmp_path, between=None):
        # make_scenario(1, (32, 32), coarse_factor=4, n_covariates=2)
        scenario, data_dir = dump_scenario(tmp_path, seed=1, gap_fraction=0.0)
        layers = [str(data_dir / f"{name}.asc") for name in scenario.covariate_names]
        out = tmp_path / "out"
        run_pipeline(validate_config(base_config(
            data_dir, out, method="rf", ntree=5, mtry=1, pca=True, render=True,
            covariate_layers=layers)))
        if between is not None:
            between(out)
        result = run_pipeline(validate_config(base_config(data_dir, out, k=3)))
        return out, result

    def test_rerun_leaves_only_its_own_outputs(self, tmp_path):
        out, result = self.rf_then_knn(tmp_path)
        listed = set(result.manifest["derived"]["output_digests"])
        assert {"forest.txt", "pca_model.csv", "prediction.ppm"}.isdisjoint(listed)
        assert {path.name for path in out.iterdir()} == listed | {"manifest.json"}

    def test_listed_names_outside_the_directory_stay(self, tmp_path):
        outside = tmp_path / "outside.txt"

        def list_outside(out):
            outside.write_text("keep\n")
            (out / "sub").mkdir()
            (out / "sub" / "inner.txt").write_text("keep\n")
            (out / "link").symlink_to(outside)
            manifest = json.loads((out / "manifest.json").read_text())
            manifest["derived"]["output_digests"].update(
                {name: "0" for name in ("../outside.txt", "sub", "sub/inner.txt", "link",
                                        "..", ".", "")})
            (out / "manifest.json").write_text(json.dumps(manifest))

        out, result = self.rf_then_knn(tmp_path, list_outside)
        assert outside.read_text() == "keep\n"
        assert (out / "sub" / "inner.txt").read_text() == "keep\n"
        assert ({path.name for path in out.iterdir()}
                == set(result.manifest["derived"]["output_digests"])
                | {"manifest.json", "sub", "link"})

    @pytest.mark.parametrize("previous", [
        None, "", "{not json", "[]", '{"derived": []}', '{"derived": {"output_digests": "ab"}}',
        '{"derived": {"output_digests": ["forest.txt"]}}'])
    def test_unusable_previous_manifest_removes_nothing(self, tmp_path, previous):
        def replace_manifest(out):
            (out / "manifest.json").unlink()
            if previous is not None:
                (out / "manifest.json").write_text(previous)
            for name in ("a", "b"):
                (out / name).write_text("keep\n")

        out, _ = self.rf_then_knn(tmp_path, replace_manifest)
        assert {"forest.txt", "pca_model.csv", "a", "b"} <= {path.name for path in out.iterdir()}


class TestHyppoPipeline:
    def test_degree_counts_in_manifest(self, tmp_path, monkeypatch, caplog):
        _, data_dir = dump_scenario(tmp_path)
        out = tmp_path / "out"
        searched = []

        def search(*args, **kwargs):
            found = neighbor_search(*args, **kwargs)
            searched.append(search_tables(*args)[0])
            return found

        monkeypatch.setattr(hyppo_module, "neighbor_search", search)
        with caplog.at_level("INFO", logger="finegrid"):
            result = run_pipeline(validate_config(base_config(
                data_dir, out, method="hyppo", k=8, max_degree=2)))
        derived = json.loads((out / "manifest.json").read_text())["derived"]
        counts = derived["hyppo_degree_counts"]
        assert sum(counts.values()) == derived["predict_count_initial"]
        # one set per distinct sorted neighbor row of the search
        sets = derived["hyppo_neighbor_sets"]
        assert sets == len({tuple(sorted(row)) for row in searched[0].tolist()})
        assert 1 < sets < derived["predict_count_initial"]
        # one count per candidate degree; degree 0's mean needs no fold fit
        fold_fits = derived["hyppo_loo_fold_fits"]
        assert fold_fits.keys() == {"0", "1", "2"} and fold_fits["0"] == 0
        refits = derived["hyppo_query_refits"]
        assert facts_in_order(caplog, result)
        assert all(int(d) <= 2 for d in counts)
        # every degree-0 query refits, and of the others those of a
        # rank-deficient set; training points are coarse centroids on a
        # lattice, so some degree-2 sets are rank-deficient
        assert "hyppo_rank_deficient" not in derived
        assert refits.keys() == fold_fits.keys()
        assert refits["0"] == counts["0"]
        assert 0 < refits["2"] < counts["2"]

    def test_max_degree_zero_matches_knn(self, tmp_path):
        _, data_dir = dump_scenario(tmp_path)
        knn_out, hyppo_out = tmp_path / "knn", tmp_path / "hyppo"
        run_pipeline(validate_config(base_config(data_dir, knn_out, k=5)))
        run_pipeline(validate_config(base_config(
            data_dir, hyppo_out, method="hyppo", k=5, max_degree=0)))
        a = read_ascii_grid(knn_out / "prediction.asc")
        b = read_ascii_grid(hyppo_out / "prediction.asc")
        np.testing.assert_array_equal(a.values, b.values)


class TestPredictFacts:
    """Each model records its facts into ``derived`` under the manifest's
    names, so the pipeline copies none of them."""

    @pytest.mark.parametrize("method", ["knn", "hyppo", "rf"])
    def test_derived_holds_what_the_model_records(self, rng, method):
        train, queries = random_table(rng, 60, 3), random_table(rng, 40, 3)
        cfg = validate_config({
            "observed_grid": "obs.asc", "output_dir": "out", "method": method, "k": 8,
            "max_degree": 2, "ntree": 4, "folds": 3, "mtry_grid": [1, 2, 3],
            "covariate_layers": ["c1.asc", "c2.asc", "c3.asc"]})
        derived = {}
        _predict(cfg, train, queries, derived)
        recorded = {}
        if method == "rf":
            tune_mtry(train, RfConfig(ntree=4, mtry="tune", seed=0), [1, 2, 3], folds=3,
                      stats=recorded)
            own = {"tuned_mtry", "mtry_used", "oob_rmse", "forest_nodes", "forest_max_depth"}
        else:
            space = FeatureSpace.fit("coords", train)
            if method == "knn":
                knn_predict(train, queries, KnnConfig(8), space, stats=recorded)
            else:
                hyppo_predict_with_degrees(train, queries, HyppoConfig(8, 2), space,
                                           stats=recorded)
            own = set()
        assert recorded
        assert derived.keys() - recorded.keys() == own
        assert {key: derived[key] for key in recorded} == recorded


@pytest.mark.parametrize("reader, error, fault", [
    pytest.param(reader, error, fault, id=f"{reader.__name__}-{fault}")
    for reader, error, faults in [
        (read_ascii_grid, ParseError, ("missing", "undecodable")),
        (read_region, ParseError, ("missing", "undecodable")),
        (read_forest, ParseError, ("missing", "undecodable")),
        (read_pca_sidecar, ParseError, ("missing", "undecodable")),
        (load_config, UsageError, ("missing", "undecodable")),
        (read_ppm, ParseError, ("missing",)),  # binary: any byte may follow the header
    ]
    for fault in faults
])
def test_unreadable_input_names_the_file(reader, error, fault, tmp_path):
    # a missing file, or text with a byte that is not UTF-8, is an engine
    # error naming the file, which the command line prints as an error line
    path = tmp_path / "input"
    if fault == "undecodable":
        path.write_bytes(b"ncols 3\n\xff\n")
    with pytest.raises(error, match=re.escape(str(path))):
        reader(path)


def test_traced_attributes_exist():
    # perfbench/tracing.py wraps these attributes by name, and its smoke
    # suite is not part of this one: a renamed or deleted one shows here
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert all(callable(bound) for bound in tracing.current_bindings())


def test_readme_library_example_runs():
    # the README's "Library use" block, run as written, so the documented API
    # cannot drift from the package
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    pred = namespace["pred"]
    assert pred.shape == (128 * 128,)
    assert np.isfinite(pred).all()
