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
import tempfile
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
from .models.forest import RfConfig, default_mtry_grid, rf_fit, rf_predict, tune_mtry, write_forest
from .models.hyppo import HyppoConfig, hyppo_predict_with_degrees
from .models.knn import WEIGHTINGS, KnnConfig, knn_predict
from .region import BufferSpec, Region, clip_points, contains, read_region
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

# marks the keys that have no default: they appear in the resolved settings
# only when the config names them
_REQUIRED = object()

# key: (accepted types, default)
_SCHEMA = {
    "observed_grid": (str, _REQUIRED),
    "daily_grids": (list, _REQUIRED),
    "min_count": (int, 1),
    "covariate_layers": (list, []),
    "covariate_names": (list, None),
    "region_file": (str, None),
    "buffer_km": ((int, float), 0.0),
    "report_region_file": (str, None),
    "output_dir": (str, _REQUIRED),
    "pca": (bool, False),
    "method": (str, _REQUIRED),
    "feature_mode": (str, None),
    "k": (int, 10),
    "weighting": (str, "uniform"),
    "max_degree": (int, 3),
    "ntree": (int, 500),
    "mtry": ((int, str), "tune"),
    "mtry_grid": (list, None),
    "folds": (int, 10),
    "min_leaf": (int, 5),
    "seed": (int, 0),
    "fine_factor": (int, 27),
    "fine_header": (dict, None),
    "workers": (int, 1),
    "clamp": ((list, type(None)), [0.0, 1.0]),
    "render": (bool, False),
}

_FINE_HEADER_KEYS = ("ncols", "nrows", "xll", "yll", "cellsize")


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


def validate_config(raw: dict, base_dir=None) -> PipelineConfig:
    """Check types, key names, and cross-field rules; fill defaults."""
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        expected = _SCHEMA[key][0]
        if value is not None and not isinstance(value, expected):
            raise UsageError(f"config key {key!r} has wrong type {type(value).__name__}")
        if isinstance(value, bool) and expected is int:
            raise UsageError(f"config key {key!r} has wrong type bool")

    settings = {key: default for key, (_, default) in _SCHEMA.items() if default is not _REQUIRED}
    settings.update(raw)

    if "method" not in raw:
        raise UsageError("config must name a method (knn, hyppo, or rf)")
    if settings["method"] not in METHODS:
        raise UsageError(f"method must be one of {METHODS}")
    if "output_dir" not in raw:
        raise UsageError("config must name an output_dir")
    has_observed = "observed_grid" in raw
    has_daily = "daily_grids" in raw and raw["daily_grids"]
    if has_observed == bool(has_daily):
        raise UsageError("config needs exactly one of observed_grid or daily_grids")
    if raw.get("fine_factor") is not None and raw.get("fine_header") is not None:
        raise UsageError("config needs at most one of fine_factor or fine_header")
    if settings["fine_header"] is not None:
        missing = [key for key in _FINE_HEADER_KEYS if key not in settings["fine_header"]]
        if missing:
            raise UsageError(f"fine_header is missing key(s) {', '.join(missing)}")
        settings["fine_factor"] = None
    elif settings["fine_factor"] is None or settings["fine_factor"] < 1:
        raise UsageError("fine_factor must be at least 1")
    if settings["weighting"] not in WEIGHTINGS:
        raise UsageError(f"weighting must be one of {WEIGHTINGS}")

    if settings["feature_mode"] is None:
        settings["feature_mode"] = "covariates" if settings["method"] == "rf" else "coords"
    if settings["feature_mode"] not in MODES:
        raise UsageError(f"feature_mode must be one of {MODES}")
    if settings["method"] == "rf" and settings["feature_mode"] == "coords":
        raise UsageError("rf operates on covariates; feature_mode 'coords' is not valid for it")

    clamp = settings["clamp"]
    if clamp is not None:
        if len(clamp) != 2 or not all(isinstance(v, (int, float)) for v in clamp):
            raise UsageError("clamp must be null or a [low, high] pair")
        if not clamp[0] < clamp[1]:
            raise UsageError("clamp low bound must be below the high bound")
        settings["clamp"] = [float(clamp[0]), float(clamp[1])]
    if settings["workers"] < 1:
        raise UsageError("workers must be at least 1")
    _model_config(settings)
    return PipelineConfig(settings, Path(base_dir) if base_dir else Path())


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
    header = cfg.settings["fine_header"]
    if header is None:
        factor = cfg.settings["fine_factor"]
        header = {
            "ncols": coarse.ncols * factor,
            "nrows": coarse.nrows * factor,
            "xll": coarse.xll,
            "yll": coarse.yll,
            "cellsize": coarse.cellsize / factor,
        }
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    nodata = float(header.get("nodata", coarse.nodata))
    return Grid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xll"],
        yll=header["yll"],
        cellsize=header["cellsize"],
        nodata=nodata,
        values=np.full((nrows, ncols), nodata),
    )


def _predict(cfg: PipelineConfig, training: PointTable, prediction: PointTable, derived: dict):
    s = cfg.settings
    model_cfg = _model_config(s)
    if cfg.method == "knn":
        space = FeatureSpace.fit(s["feature_mode"], training)
        return knn_predict(training, prediction, model_cfg, space), None
    if cfg.method == "hyppo":
        space = FeatureSpace.fit(s["feature_mode"], training)
        stats = {}
        values, degrees, rank_deficient = hyppo_predict_with_degrees(
            training, prediction, model_cfg, space, stats=stats
        )
        unique, counts = np.unique(degrees, return_counts=True)
        derived["hyppo_neighbor_sets"] = stats["neighbor_sets"]
        derived["hyppo_degree_counts"] = {int(d): int(c) for d, c in zip(unique, counts)}
        derived["hyppo_rank_deficient"] = {
            int(d): int(np.count_nonzero(rank_deficient[degrees == d])) for d in unique
        }
        logger.info("hyppo: %d neighbor sets for %d queries, degree counts %s",
                    stats["neighbor_sets"], len(prediction), derived["hyppo_degree_counts"])
        return values, None
    if model_cfg.mtry == "tune":
        grid = s["mtry_grid"] or default_mtry_grid(training.p)
        tuned = tune_mtry(training, model_cfg, grid, folds=s["folds"])
        derived["tuned_mtry"] = tuned
        model_cfg = replace(model_cfg, mtry=tuned)
    forest = rf_fit(training, model_cfg, workers=s["workers"])
    derived["oob_rmse"] = forest.oob_rmse
    derived["forest_nodes"] = sum(tree.n_nodes for tree in forest.trees)
    derived["forest_max_depth"] = max(tree.depth for tree in forest.trees)
    derived["mtry_used"] = model_cfg.mtry
    return rf_predict(forest, prediction), forest


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Execute the full workflow; see module docstring.

    Outputs are written into a temporary directory inside the output
    directory and moved into place only once ``manifest.json`` is written.
    Any failure aborts with a stage-labeled EngineError and removes that
    temporary directory, so the outputs of an earlier run stay as they were.
    """
    s = cfg.settings
    out_dir = cfg.resolve(s["output_dir"])
    staging: Path | None = None
    stage = "setup"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # inside out_dir, so the final os.replace stays on one filesystem
        staging = Path(tempfile.mkdtemp(prefix=".partial-", dir=out_dir))
        derived: dict = {}

        stage = "load-observed"
        if "observed_grid" in s and s.get("observed_grid"):
            observed = read_ascii_grid(cfg.resolve(s["observed_grid"]))
        else:
            daily = s["daily_grids"]
            if len(daily) == 1 and Path(cfg.resolve(daily[0])).is_dir():
                paths = sorted(Path(cfg.resolve(daily[0])).glob("*.asc"))
            else:
                paths = [cfg.resolve(p) for p in daily]
            if not paths:
                raise UsageError("daily_grids matched no files")
            observed = monthly_mean([read_ascii_grid(p) for p in paths], min_count=s["min_count"])
            derived["daily_grid_count"] = len(paths)
        clamp = s["clamp"]
        if clamp is not None:
            data = observed.values[observed.data_mask]
            if len(data) and (data.min() < clamp[0] or data.max() > clamp[1]):
                raise UsageError(
                    f"observed values fall outside the declared target range {clamp}"
                )

        stage = "load-covariates"
        layer_paths = [cfg.resolve(p) for p in s["covariate_layers"]]
        layers = [read_ascii_grid(p) for p in layer_paths]
        if s["covariate_names"] is not None:
            if len(s["covariate_names"]) != len(layers):
                raise UsageError("covariate_names length does not match covariate_layers")
            layer_names = [str(n) for n in s["covariate_names"]]
        else:
            layer_names = [p.stem for p in layer_paths]
        if len(set(layer_names)) != len(layer_names):
            raise UsageError("covariate layer names must be unique")
        needs_covs = s["feature_mode"] != "coords" or s["pca"] or cfg.method == "rf"
        if needs_covs and not layers:
            raise UsageError(
                f"method {cfg.method!r} with feature_mode {s['feature_mode']!r} "
                "needs covariate_layers"
            )

        stage = "load-region"
        region = buffer = None
        if s["region_file"]:
            region = read_region(cfg.resolve(s["region_file"]))
            buffer = BufferSpec(float(s["buffer_km"]))
        report_region = None
        if s["report_region_file"]:
            report_region = read_region(cfg.resolve(s["report_region_file"]))

        stage = "assemble-training"
        training = grid_to_points(observed)
        derived["train_count_initial"] = len(training)
        if len(training) == 0:
            raise UsageError("observed grid has no data cells to train on")
        if layers:
            before = len(training)
            training = sample_covariates(training, layers, layer_names)
            derived["train_dropped_sampling"] = before - len(training)

        stage = "fine-grid"
        fine = _fine_grid_header(cfg, observed)
        prediction_points = grid_centroids(fine)
        derived["predict_count_initial"] = len(prediction_points)
        if layers:
            before = len(prediction_points)
            prediction_points = sample_covariates(prediction_points, layers, layer_names)
            derived["predict_dropped_sampling"] = before - len(prediction_points)

        stage = "clip"
        if region is not None:
            training = clip_points(training, region, buffer)
            prediction_points = clip_points(prediction_points, region, buffer)
            derived["train_count_after_clip"] = len(training)
            derived["predict_count_after_clip"] = len(prediction_points)
            if len(training) == 0:
                raise UsageError("no training records remain after region clipping")
            if len(prediction_points) == 0:
                raise UsageError("no prediction records remain after region clipping")

        stage = "pca"
        if s["pca"]:
            if training.p == 0:
                raise UsageError("pca enabled but the tables carry no covariates")
            model = cov.pca_fit(training)
            mtry = [s["mtry"]] if s["mtry"] != "tune" else s["mtry_grid"] or []
            if cfg.method == "rf" and max(mtry, default=0) > model.retained:
                raise UsageError(
                    f"mtry {max(mtry)} exceeds the {model.retained} component(s) "
                    "retained by pca; lower mtry or mtry_grid, or disable pca"
                )
            training = cov.pca_transform(model, training)
            prediction_points = cov.pca_transform(model, prediction_points)
            cov.write_pca_sidecar(model, staging / "pca_model.csv")
            derived["pca_retained"] = model.retained
            derived["pca_eigenvalues"] = [float(v) for v in model.eigenvalues]

        stage = "model"
        values, forest = _predict(cfg, training, prediction_points, derived)
        if clamp is not None:
            values = np.clip(values, clamp[0], clamp[1])
        predicted = prediction_points.with_target(values)
        if forest is not None:
            write_forest(forest, staging / "forest.txt")

        stage = "report-clip"
        if report_region is not None:
            predicted = predicted.subset(contains(report_region, predicted.lon, predicted.lat))
            derived["report_count"] = len(predicted)
            if len(predicted) == 0:
                raise UsageError("no predictions fall inside the reporting region")

        stage = "write-prediction"
        raster = np.full((fine.nrows, fine.ncols), fine.nodata)
        rows, cols, inside = fine.cell_index_arrays(predicted.lon, predicted.lat)
        raster[rows[inside], cols[inside]] = predicted.target[inside]
        prediction_grid = fine.with_values(raster)
        write_ascii_grid(prediction_grid, staging / "prediction.asc")

        stage = "analysis"
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
            stage = "render"
            # the grids just written, from memory: the .asc round trip is exact
            for grid, name, palette in (
                (prediction_grid, "prediction", "sequential"),
                (aggregated, "aggregated", "sequential"),
                (report.residual, "residual", "diverging"),
                (report.relative_residual, "relative_residual", "diverging"),
            ):
                render_heatmap(grid, palette, staging / f"{name}.ppm")

        stage = "manifest"
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
    except Exception as exc:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        raise EngineError(f"stage {stage}: {exc}") from exc
    return RunResult(out_dir, report, manifest, prediction_grid)
