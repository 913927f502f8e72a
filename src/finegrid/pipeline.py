"""Config-driven orchestration: data processing, prediction, analysis.

A run loads the coarse observed grid (or averages daily grids), assembles
training records from its non-nodata cells, builds a fine prediction
lattice, clips both point sets with the same buffered region and the
prediction cells to the reporting region, optionally reduces covariates by
PCA, predicts the kept cells with one of the three models, clamps to the
declared target range, and harmonizes the fine predictions back to the
coarse grid for residual analysis. Every parameter and derived choice lands
in a manifest, with the finegrid, numpy and Python versions that produced
them, so a run can be reproduced bit for bit.
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
    refuse_nodata,
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
    if s["buffer_km"] > 0 and not s["region_file"]:
        raise UsageError("config key 'buffer_km' above 0 needs a region_file to widen")
    if s["min_count"] > 1 and not raw.get("daily_grids"):
        raise UsageError("config key 'min_count' above 1 needs daily_grids to count")
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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw, base_dir=path.parent)


class _Facts(dict):
    """The manifest's derived facts, which the models record too, each under
    its manifest name. Each one recorded is logged at INFO as ``key: value``,
    the value in the manifest's own JSON encoding."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if logger.isEnabledFor(logging.INFO):
            logger.info("%s: %s", key, json.dumps(value, sort_keys=True))


@dataclass(frozen=True)
class RunResult:
    output_dir: Path
    report: ResidualReport
    manifest: dict


def _model_config(s: dict):
    """The model config a run's settings name; raises UsageError on a bad value."""
    if s["method"] == "knn":
        return KnnConfig(s["k"], s["weighting"])
    if s["method"] == "hyppo":
        return HyppoConfig(s["k"], s["max_degree"])
    return RfConfig(ntree=s["ntree"], mtry=s["mtry"], min_leaf=s["min_leaf"], seed=s["seed"])


def _fine_grid_header(cfg: PipelineConfig, coarse: Grid) -> Grid:
    """The fine prediction grid as a header: its values are the nodata value
    broadcast to every cell, so no raster is held until one is written."""
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
    return Grid(**header,
                values=np.broadcast_to(header["nodata"], (header["nrows"], header["ncols"])))


def _predict(cfg: PipelineConfig, training: PointTable, prediction: PointTable, derived: dict):
    s = cfg.settings
    model_cfg = _model_config(s)
    if cfg.method != "rf":
        space = FeatureSpace.fit(s["feature_mode"], training)
        if cfg.method == "knn":
            return knn_predict(training, prediction, model_cfg, space, stats=derived), None
        return hyppo_predict_with_degrees(training, prediction, model_cfg, space,
                                          stats=derived)[0], None
    if model_cfg.mtry == "tune":
        tuned = tune_mtry(training, model_cfg, s["mtry_grid"], folds=s["folds"], stats=derived)
        derived["tuned_mtry"] = tuned
        model_cfg = replace(model_cfg, mtry=tuned)
    forest = rf_fit(training, model_cfg, workers=s["workers"])
    derived["oob_rmse"] = forest.oob_rmse
    derived["forest_nodes"] = sum(tree.n_nodes for tree in forest.trees)
    derived["forest_max_depth"] = max(tree.depth for tree in forest.trees)
    derived["mtry_used"] = model_cfg.mtry
    return rf_predict(forest, prediction, workers=s["workers"]), forest


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size in MB, or None where the
    ``resource`` module is missing (Windows). Linux reports ``ru_maxrss`` in
    KiB, macOS in bytes."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _listed_outputs(manifest_path: Path) -> set:
    """The plain file names in an earlier manifest's ``output_digests``.
    That manifest is outside input: a missing, unreadable or malformed one
    lists nothing, and a name with a path separator, or ``.`` or ``..``,
    is skipped."""
    try:
        listed = json.loads(manifest_path.read_text())["derived"]["output_digests"]
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return set()
    if not isinstance(listed, dict):
        return set()
    return {name for name in listed if name not in ("", ".", "..") and Path(name).name == name}


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Execute the full workflow; see module docstring.

    The ``clip`` stage applies both regions and checks that a prediction
    cell pairs with observed data, so PCA and the model see only the cells
    the outputs keep.

    Outputs are written into a temporary directory inside the output
    directory and moved into place only once ``manifest.json`` is written.
    Any failure aborts with a stage-labeled EngineError and removes that
    temporary directory, so the outputs of an earlier run stay as they were.
    A run that succeeds removes the files the previous ``manifest.json``
    listed and it did not write.
    Each fact of the manifest's ``derived`` block is logged at INFO level
    as it is recorded, and the agreement line after the analysis. Each
    stage that completes logs its wall time at DEBUG level on the
    ``finegrid`` logger, with the process's peak resident set size so far
    where the platform reports it; neither enters the manifest, so reruns
    stay byte for byte the same.
    """
    s = cfg.settings
    out_dir = cfg.resolve(s["output_dir"])
    staging: Path | None = None
    stage, started = "setup", time.perf_counter()

    def enter(next_stage: str | None) -> None:
        """Log the wall time of the stage that ends and the peak RSS so far,
        then label the next."""
        nonlocal stage, started
        now = time.perf_counter()
        rss = _peak_rss_mb()
        logger.debug("stage %s: %.6f s%s", stage, now - started,
                     "" if rss is None else f", ru_maxrss {rss:.1f} MB")
        stage, started = next_stage, now

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # inside out_dir, so the final os.replace stays on one filesystem
        staging = Path(tempfile.mkdtemp(prefix=".partial-", dir=out_dir))
        derived = _Facts()

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
        del layers  # sampled; the grids need not outlive this stage

        enter("clip")
        if region is not None:
            training = clip_points(training, region, s["buffer_km"])
            prediction_points = clip_points(prediction_points, region, s["buffer_km"])
            derived["train_count_after_clip"] = len(training)
            derived["predict_count_after_clip"] = len(prediction_points)
            if len(training) == 0:
                raise UsageError("no training records remain after region clipping")
            if len(prediction_points) == 0:
                raise UsageError("no prediction records remain after region clipping")
        if report_region is not None:
            prediction_points = prediction_points.subset(
                contains(report_region, prediction_points.lon, prediction_points.lat))
            derived["report_count"] = len(prediction_points)
            if len(prediction_points) == 0:
                raise UsageError("no predictions fall inside the reporting region")
        # the analysis pairs only the cells in observed data cells, so with
        # none every metric would be empty
        cells = observed.cell_numbers(prediction_points.lon, prediction_points.lat)
        if not (np.take(observed.data_mask, cells) & (cells >= 0)).any():
            raise UsageError("no prediction cell falls in a data cell of the observed grid")
        del cells

        enter("pca")
        coords_only = s["feature_mode"] == "coords"
        if s["pca"]:
            model = cov.pca_fit(training)
            _check_mtry(s, model.retained, "component(s) retained by pca")
            if not coords_only:
                training = cov.pca_transform(model, training)
                prediction_points = cov.pca_transform(model, prediction_points)
            cov.write_pca_sidecar(model, staging / "pca_model.csv")
            derived["pca_retained"] = model.retained
            derived["pca_eigenvalues"] = [float(v) for v in model.eigenvalues]
        if coords_only:
            # no later stage reads a covariate
            training, prediction_points = (
                PointTable(t.lon, t.lat, t.target, np.zeros((len(t), 0)))
                for t in (training, prediction_points))

        enter("model")
        values, forest = _predict(cfg, training, prediction_points, derived)
        if clamp is not None:
            values = np.clip(values, clamp[0], clamp[1])
        # the outputs read the predictions' places, not their features
        predicted = PointTable(prediction_points.lon, prediction_points.lat, values,
                               np.zeros((len(values), 0)))
        del prediction_points
        if forest is not None:
            write_forest(forest, staging / "forest.txt")

        enter("write-prediction")
        refuse_nodata("predicted", predicted.target, fine.nodata)
        # one spare last cell takes the -1 of any record outside the grid
        raster = np.full(fine.nrows * fine.ncols + 1, fine.nodata)
        raster[fine.cell_numbers(predicted.lon, predicted.lat)] = predicted.target
        prediction_grid = fine.with_values(raster[:-1].reshape(fine.nrows, fine.ncols))
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
        from . import __version__  # the package sets it after importing this module
        environment = {"finegrid": __version__, "numpy": np.__version__,
                       "python": sys.version.split()[0]}
        manifest = {"config": s, "derived": derived, "environment": environment}
        manifest_path = staging / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        stale = _listed_outputs(out_dir / "manifest.json")
        # the manifest moves last, so a new manifest means every output is new
        for path in outputs + [manifest_path]:
            os.replace(path, out_dir / path.name)
            stale.discard(path.name)
        staging.rmdir()
        # an earlier run's outputs that this run did not write go, so the
        # directory holds exactly what the new manifest lists
        for name in sorted(stale):
            path = out_dir / name
            if path.is_file() and not path.is_symlink():
                try:
                    path.unlink()
                except OSError as exc:
                    logger.warning("cannot remove an earlier run's %s: %s", path, exc)
        enter(None)
    except Exception as exc:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        raise EngineError(f"stage {stage}: {exc}") from exc
    return RunResult(out_dir, report, manifest)
