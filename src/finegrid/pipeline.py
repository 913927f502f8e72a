"""Config-driven orchestration: data processing, prediction, analysis.

A run loads the coarse observed grid (or averages daily grids), assembles
training records from its non-nodata cells, builds a fine prediction
lattice, clips both point sets with the same buffered region, optionally
reduces covariates by PCA, predicts with one of the three models, clamps to
the declared target range, and harmonizes the fine predictions back to the
coarse grid for residual analysis. Every parameter and derived choice lands
in a manifest so a run can be reproduced bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import covariates as cov
from .analysis import (
    ResidualReport,
    aggregate_fine_to_coarse,
    format_metrics,
    residual_report,
    scatter_export,
)
from .errors import EngineError, UsageError
from .grid import (
    Grid,
    PointTable,
    grid_centroids,
    grid_to_points,
    monthly_mean,
    read_ascii_grid,
    sample_covariates,
    write_ascii_grid,
)
from .models.features import MODES, FeatureSpace
from .models.forest import RfConfig, rf_fit, rf_predict, tune_mtry, write_forest
from .models.hyppo import HyppoConfig, hyppo_predict_with_degrees
from .models.knn import WEIGHTINGS, KnnConfig, knn_predict
from .region import clip_points, contains, read_region
from .render import render_heatmap

METHODS = ("knn", "hyppo", "rf")

logger = logging.getLogger("finegrid")

OUTPUT_FILES = (
    "prediction.asc",
    "aggregated.asc",
    "residual.asc",
    "relative_residual.asc",
    "scatter.csv",
    "metrics.txt",
    "manifest.json",
)

# no default: _REQUIRED keys must be named, _UNSET keys may be absent, and
# the resolved settings hold either only when the config names it
_REQUIRED, _UNSET = object(), object()
_NONE = type(None)
_NUMBER = (int, float)
# finite as a float: also refuses a JSON integer too large to convert
_FINITE = ((lambda v: abs(v) <= sys.float_info.max), "finite")

# key: (accepted types, default, rule). A rule is what a value set in the
# config must meet beyond its type: a set of allowed values, a number (the
# least allowed value), [types, rule] of every entry of a list, a schema
# like this one for the keys of a mapping, or a (test, description) pair.
_SCHEMA = {
    "observed_grid": (str, _UNSET, None),
    "daily_grids": (list, _UNSET, [str, None]),
    "min_count": (int, 1, 1),
    "covariate_layers": (list, [], [str, None]),
    "region_file": ((str, _NONE), None, None),
    "buffer_km": (_NUMBER, 0.0, 0),
    "report_region_file": ((str, _NONE), None, None),
    "output_dir": (str, _REQUIRED, None),
    "pca": (bool, False, None),
    "method": (str, _REQUIRED, set(METHODS)),
    "feature_mode": ((str, _NONE), None, set(MODES)),
    "k": (int, 10, None),
    "weighting": (str, "uniform", set(WEIGHTINGS)),
    "max_degree": (int, 3, None),
    "ntree": (int, 500, None),
    "mtry": ((int, str), "tune", None),
    "mtry_grid": ((list, _NONE), None, [int, 1]),
    "folds": (int, 10, 2),
    "min_leaf": (int, 5, None),
    "seed": (int, 0, None),
    "fine_factor": ((int, _NONE), 27, 1),
    "fine_header": ((dict, _NONE), None, {
        "ncols": (int, _REQUIRED, 1),
        "nrows": (int, _REQUIRED, 1),
        "xll": (_NUMBER, _REQUIRED, _FINITE),
        "yll": (_NUMBER, _REQUIRED, _FINITE),
        "cellsize": (_NUMBER, _REQUIRED,
                     ((lambda v: 0 < v <= sys.float_info.max), "positive and finite")),
        "nodata": (_NUMBER, _UNSET, _FINITE),  # absent: the observed grid's
    }),
    "workers": (int, 1, 1),
    "clamp": ((list, _NONE), [0.0, 1.0], (
        lambda v: len(v) == 2 and all(type(b) in _NUMBER for b in v) and v[0] < v[1],
        "null or a [low, high] pair of numbers with low < high",
    )),
    "render": (bool, False, None),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Validated run configuration; ``settings`` holds every key with its
    default resolved, exactly as recorded in the manifest."""

    settings: dict
    base_dir: Path = field(default_factory=Path)

    @property
    def method(self) -> str:
        return self.settings["method"]

    def resolve(self, path_str: str) -> Path:
        path = Path(path_str)
        return path if path.is_absolute() else self.base_dir / path


def _check(name: str, value, types, rule=None) -> None:
    """Raise a UsageError naming ``name`` unless ``value`` has one of
    ``types`` (a bool only where bool is the type) and meets ``rule``."""
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise UsageError(f"config key {name!r} has wrong type {type(value).__name__}")
    if value is None or rule is None:
        return
    if isinstance(rule, list):
        for i, entry in enumerate(value):
            _check(f"{name}[{i}]", entry, *rule)
    elif isinstance(rule, dict):
        missing = [key for key, (_, d, _) in rule.items() if d is _REQUIRED and key not in value]
        if missing:
            raise UsageError(f"{name} is missing key(s) {', '.join(missing)}")
        unknown = sorted(set(value) - set(rule))
        if unknown:
            raise UsageError(f"unknown {name} keys: {', '.join(unknown)}")
        for key, entry in value.items():
            types, _, entry_rule = rule[key]
            _check(key if name == "config" else f"{name}.{key}", entry, types, entry_rule)
    elif isinstance(rule, set) and value not in rule:
        raise UsageError(f"config key {name!r} must be one of {sorted(rule)}")
    elif isinstance(rule, _NUMBER) and not value >= rule:  # NaN too
        raise UsageError(f"config key {name!r} must be at least {rule}")
    elif isinstance(rule, tuple) and not rule[0](value):
        raise UsageError(f"config key {name!r} must be {rule[1]}")


def _check_mtry(s: dict, limit: int, what: str) -> None:
    """Refuse an rf mtry, or mtry_grid entry, above the features available."""
    named = [s["mtry"]] if s["mtry"] != "tune" else s["mtry_grid"] or []
    if s["method"] == "rf" and max(named, default=0) > limit:
        raise UsageError(f"mtry {max(named)} exceeds the {limit} {what}; lower mtry or mtry_grid")


def validate_config(raw: dict, base_dir=None) -> PipelineConfig:
    """Judge a config, which no stage checks again: each key's type and rule
    from _SCHEMA, then the rules between keys. Fill defaults."""
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    _check("config", raw, dict, _SCHEMA)
    s = {key: d for key, (_, d, _) in _SCHEMA.items() if d is not _REQUIRED and d is not _UNSET}
    s.update(raw)

    if ("observed_grid" in raw) == bool(raw.get("daily_grids")):
        raise UsageError("config needs exactly one of observed_grid or daily_grids")
    if s["fine_header"] is not None:
        if raw.get("fine_factor") is not None:
            raise UsageError("config needs at most one of fine_factor or fine_header")
        s["fine_factor"] = None
    elif s["fine_factor"] is None:
        raise UsageError("config needs a fine_factor or a fine_header")
    if s["mtry_grid"] == []:
        raise UsageError("config key 'mtry_grid' is empty; list candidates or use null")
    s["feature_mode"] = s["feature_mode"] or ("covariates" if s["method"] == "rf" else "coords")
    if s["method"] == "rf" and s["feature_mode"] != "covariates":
        raise UsageError("rf operates on covariates; feature_mode must be 'covariates'")
    if s["clamp"] is not None:
        s["clamp"] = [float(v) for v in s["clamp"]]
    _model_config(s)

    layers = s["covariate_layers"]
    if not layers and (s["feature_mode"] != "coords" or s["pca"]):
        needs = (f"method {s['method']!r} with feature_mode {s['feature_mode']!r}"
                 if s["feature_mode"] != "coords" else "pca")
        raise UsageError(f"{needs} needs covariate_layers")
    if not s["pca"]:
        _check_mtry(s, len(layers), "covariate layer(s)")
    return PipelineConfig(s, Path(base_dir) if base_dir else Path())


def load_config(path) -> PipelineConfig:
    """Read a JSON config file; relative paths inside it are taken relative
    to the file's directory."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw, base_dir=path.parent)


@dataclass(frozen=True)
class RunResult:
    output_dir: Path
    report: ResidualReport
    manifest: dict
    prediction: Grid


def _model_config(s: dict):
    """The model config a run's settings name; raises UsageError on a bad value."""
    if s["method"] == "knn":
        return KnnConfig(s["k"], s["weighting"])
    if s["method"] == "hyppo":
        return HyppoConfig(s["k"], s["max_degree"])
    return RfConfig(ntree=s["ntree"], mtry=s["mtry"], min_leaf=s["min_leaf"], seed=s["seed"])


def _fine_grid_header(cfg: PipelineConfig, coarse: Grid) -> Grid:
    factor = cfg.settings["fine_factor"]
    header = cfg.settings["fine_header"] or {
        "ncols": coarse.ncols * factor,
        "nrows": coarse.nrows * factor,
        "xll": coarse.xll,
        "yll": coarse.yll,
        "cellsize": coarse.cellsize / factor,
    }
    # the header keys are Grid's field names
    header = {"nodata": coarse.nodata, **header}
    return Grid(**header, values=np.full((header["nrows"], header["ncols"]), header["nodata"]))


def _predict(cfg: PipelineConfig, training: PointTable, prediction: PointTable, derived: dict):
    s = cfg.settings
    model_cfg = _model_config(s)
    if cfg.method != "rf":
        space = FeatureSpace.fit(s["feature_mode"], training)
    if cfg.method == "knn":
        return knn_predict(training, prediction, model_cfg, space), None
    if cfg.method == "hyppo":
        stats = {}
        values, degrees, rank_deficient = hyppo_predict_with_degrees(
            training, prediction, model_cfg, space, stats=stats
        )
        counts = np.bincount(degrees)
        present = np.flatnonzero(counts)
        derived["hyppo_neighbor_sets"] = stats["neighbor_sets"]
        derived["hyppo_degree_counts"] = {int(d): int(counts[d]) for d in present}
        derived["hyppo_rank_deficient"] = {
            int(d): int(np.count_nonzero(rank_deficient[degrees == d])) for d in present
        }
        derived["hyppo_loo_fold_fits"] = stats["loo_fold_fits"]
        derived["hyppo_query_refits"] = stats["query_refits"]
        logger.info("hyppo: %d neighbor sets for %d queries, degree counts %s, "
                    "leave-one-out fold fits %s, query refits %s", stats["neighbor_sets"],
                    len(prediction), derived["hyppo_degree_counts"], stats["loo_fold_fits"],
                    stats["query_refits"])
        return values, None
    cv = ""
    if model_cfg.mtry == "tune":
        stats = {}
        tuned = tune_mtry(training, model_cfg, s["mtry_grid"], folds=s["folds"], stats=stats)
        derived["tuned_mtry"] = tuned
        derived["mtry_cv_rmse"] = stats["cv_rmse"]
        cv = f", cv_rmse {stats['cv_rmse']}"
        model_cfg = replace(model_cfg, mtry=tuned)
    forest = rf_fit(training, model_cfg, workers=s["workers"])
    derived["oob_rmse"] = forest.oob_rmse
    derived["forest_nodes"] = sum(tree.n_nodes for tree in forest.trees)
    derived["forest_max_depth"] = max(tree.depth for tree in forest.trees)
    derived["mtry_used"] = model_cfg.mtry
    logger.info("rf: %s mtry %d, oob_rmse %r, forest_nodes %d, forest_max_depth %d%s",
                "tuned" if s["mtry"] == "tune" else "fixed", model_cfg.mtry,
                forest.oob_rmse, derived["forest_nodes"], derived["forest_max_depth"], cv)
    return rf_predict(forest, prediction, workers=s["workers"]), forest


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Execute the full workflow; see module docstring.

    Outputs are written into a temporary directory inside the output
    directory and moved into place only once ``manifest.json`` is written.
    Any failure aborts with a stage-labeled EngineError and removes that
    temporary directory, so the outputs of an earlier run stay as they were.
    Each stage that completes logs its wall time at DEBUG level on the
    ``finegrid`` logger; no timing enters the manifest, so reruns stay byte
    for byte the same.
    """
    s = cfg.settings
    out_dir = cfg.resolve(s["output_dir"])
    staging: Path | None = None
    stage, started = "setup", time.perf_counter()

    def enter(next_stage: str | None) -> None:
        """Log the wall time of the stage that ends, then label the next."""
        nonlocal stage, started
        now = time.perf_counter()
        logger.debug("stage %s: %.6f s", stage, now - started)
        stage, started = next_stage, now

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # inside out_dir, so the final os.replace stays on one filesystem
        staging = Path(tempfile.mkdtemp(prefix=".partial-", dir=out_dir))
        derived: dict = {}

        enter("load-observed")
        if "observed_grid" in s:
            observed = read_ascii_grid(cfg.resolve(s["observed_grid"]))
        else:
            daily = s["daily_grids"]
            if len(daily) == 1 and Path(cfg.resolve(daily[0])).is_dir():
                paths = sorted(Path(cfg.resolve(daily[0])).glob("*.asc"))
            else:
                paths = [cfg.resolve(p) for p in daily]
            if not paths:
                raise UsageError("daily_grids matched no files")
            if s["min_count"] > len(paths):
                raise UsageError(f"min_count {s['min_count']} exceeds the {len(paths)} "
                                 "daily grid(s) found")
            observed = monthly_mean([read_ascii_grid(p) for p in paths], min_count=s["min_count"])
            derived["daily_grid_count"] = len(paths)
        clamp = s["clamp"]
        if clamp is not None:
            data = observed.values[observed.data_mask]
            if len(data) and (data.min() < clamp[0] or data.max() > clamp[1]):
                raise UsageError(
                    f"observed values fall outside the declared target range {clamp}"
                )

        enter("load-covariates")
        layers = [read_ascii_grid(cfg.resolve(p)) for p in s["covariate_layers"]]

        enter("load-region")
        region = None
        if s["region_file"]:
            region = read_region(cfg.resolve(s["region_file"]))
        report_region = None
        if s["report_region_file"]:
            report_region = read_region(cfg.resolve(s["report_region_file"]))

        enter("assemble-training")
        training = grid_to_points(observed)
        derived["train_count_initial"] = len(training)
        if len(training) == 0:
            raise UsageError("observed grid has no data cells to train on")
        if layers:
            before = len(training)
            training = sample_covariates(training, layers)
            derived["train_dropped_sampling"] = before - len(training)
            if len(training) == 0:
                raise UsageError("no training records remain after covariate sampling")
        logger.info("training records: %d after sampling", derived["train_count_initial"]
                    - derived.get("train_dropped_sampling", 0))

        enter("fine-grid")
        fine = _fine_grid_header(cfg, observed)
        prediction_points = grid_centroids(fine)
        derived["predict_count_initial"] = len(prediction_points)
        if layers:
            before = len(prediction_points)
            prediction_points = sample_covariates(prediction_points, layers)
            derived["predict_dropped_sampling"] = before - len(prediction_points)
            if len(prediction_points) == 0:
                raise UsageError("no prediction records remain after covariate sampling")
        logger.info("prediction cells: %d after sampling", derived["predict_count_initial"]
                    - derived.get("predict_dropped_sampling", 0))

        enter("clip")
        if region is not None:
            training = clip_points(training, region, s["buffer_km"])
            prediction_points = clip_points(prediction_points, region, s["buffer_km"])
            derived["train_count_after_clip"] = len(training)
            derived["predict_count_after_clip"] = len(prediction_points)
            logger.info("after the clip: %d training records, %d prediction cells",
                        derived["train_count_after_clip"], derived["predict_count_after_clip"])
            if len(training) == 0:
                raise UsageError("no training records remain after region clipping")
            if len(prediction_points) == 0:
                raise UsageError("no prediction records remain after region clipping")

        enter("pca")
        if s["pca"]:
            model = cov.pca_fit(training)
            _check_mtry(s, model.retained, "component(s) retained by pca")
            training = cov.pca_transform(model, training)
            prediction_points = cov.pca_transform(model, prediction_points)
            cov.write_pca_sidecar(model, staging / "pca_model.csv")
            derived["pca_retained"] = model.retained
            derived["pca_eigenvalues"] = [float(v) for v in model.eigenvalues]
            logger.info("pca: %d components retained", derived["pca_retained"])

        enter("model")
        values, forest = _predict(cfg, training, prediction_points, derived)
        if clamp is not None:
            values = np.clip(values, clamp[0], clamp[1])
        predicted = prediction_points.with_target(values)
        if forest is not None:
            write_forest(forest, staging / "forest.txt")

        enter("report-clip")
        if report_region is not None:
            predicted = predicted.subset(contains(report_region, predicted.lon, predicted.lat))
            derived["report_count"] = len(predicted)
            logger.info("report count: %d", derived["report_count"])
            if len(predicted) == 0:
                raise UsageError("no predictions fall inside the reporting region")

        enter("write-prediction")
        raster = np.full((fine.nrows, fine.ncols), fine.nodata)
        rows, cols, inside = fine.cell_index_arrays(predicted.lon, predicted.lat)
        raster[rows[inside], cols[inside]] = predicted.target[inside]
        prediction_grid = fine.with_values(raster)
        write_ascii_grid(prediction_grid, staging / "prediction.asc")

        enter("analysis")
        aggregated = aggregate_fine_to_coarse(predicted, observed)
        report = residual_report(aggregated, observed)
        write_ascii_grid(aggregated, staging / "aggregated.asc")
        write_ascii_grid(report.residual, staging / "residual.asc")
        write_ascii_grid(report.relative_residual, staging / "relative_residual.asc")
        scatter_export(aggregated, observed, staging / "scatter.csv")
        metrics = format_metrics(report)
        (staging / "metrics.txt").write_text(metrics + "\n")
        logger.info("agreement: %s", metrics)

        if s["render"]:
            enter("render")
            # the grids just written, from memory: the .asc round trip is exact
            for grid, name, palette in (
                (prediction_grid, "prediction", "sequential"),
                (aggregated, "aggregated", "sequential"),
                (report.residual, "residual", "diverging"),
                (report.relative_residual, "relative_residual", "diverging"),
            ):
                render_heatmap(grid, palette, staging / f"{name}.ppm")

        enter("manifest")
        # the staging directory holds exactly what this run wrote
        outputs = sorted(staging.iterdir())
        derived["output_digests"] = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs
        }
        manifest = {"config": s, "derived": derived}
        manifest_path = staging / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        # the manifest moves last, so a new manifest means every output is new
        for path in outputs + [manifest_path]:
            os.replace(path, out_dir / path.name)
        staging.rmdir()
        enter(None)
    except Exception as exc:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        raise EngineError(f"stage {stage}: {exc}") from exc
    return RunResult(out_dir, report, manifest, prediction_grid)
