"""The timed loop: repeated pipeline runs on one set of inputs, with checks.

Runs in a fresh process that did not generate the inputs, so the peak RSS
taken after its warm-up run is the pipeline's own (plus the interpreter and
numpy). The untimed warm-up run also settles the page cache and lazy imports
and fixes the reference output digests; every later run whose digests differ
counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import finegrid.pipeline as pipeline
from reference import knn_check, read_grid, report_check
from tracing import COUNT_METRICS, Tracer, layer_metrics, traced
from workloads import Workload

MIN_ATTEMPTS = 3


def output_digests(out_dir: Path) -> dict:
    """sha256 of every file the run wrote: OUTPUT_FILES plus the PCA sidecar,
    the forest and the images when the config asks for them."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def _run(config_path: Path):
    with redirect_stdout(io.StringIO()):
        return pipeline.run_pipeline(pipeline.load_config(config_path))


def timed_run(config_path: Path):
    start = perf_counter()
    result = _run(config_path)
    return perf_counter() - start, result


def traced_run(config_path: Path):
    """One run with every layer wrapped; returns (root duration, result, tracer)."""
    tracer = Tracer()
    with traced(tracer), tracer.span("run"):
        result = _run(config_path)
    _, _, start, end = tracer.spans[0]
    return end - start, result, tracer


def check_outputs(work: Path, workload: Workload, reported_rmse: float) -> tuple[dict, dict]:
    """Score prediction.asc against truth.asc over the predicted cells and
    check the outputs; returns (scores, checks).

    Every run's aggregation and reported RMSE are recomputed from its grids.
    A knn run is recomputed from its inputs (``reference.knn_check``). A
    workload with ``beats_constant`` must also beat the constant predictor,
    whose RMSE is the truth's standard deviation.
    """
    config = json.loads((work / "config.json").read_text())
    pred_header, pred = read_grid(work / "out" / "prediction.asc")
    truth_header, truth = read_grid(work / "truth.asc")
    mask = pred != pred_header["nodata_value"]
    scores = {"cells": int(mask.sum()), "truth_rmse": float("nan"), "truth_stdev": float("nan")}
    checks = {"same_grid": pred_header == truth_header, "cells_predicted": scores["cells"] > 0}
    if not all(checks.values()):
        return scores, checks
    diff = pred[mask] - truth[mask]
    scores["truth_rmse"] = float(np.sqrt(np.mean(diff * diff)))
    scores["truth_stdev"] = float(np.std(truth[mask]))
    checks["in_range"] = bool(np.all((pred[mask] >= 0.0) & (pred[mask] <= 1.0)))
    checks.update(report_check(work, config, reported_rmse))
    if config["method"] == "knn":
        checks.update(knn_check(work, config))
    if workload.beats_constant:
        checks["beats_constant"] = scores["truth_rmse"] < scores["truth_stdev"]
    return scores, checks


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {
            key: os.environ.get(key)
            for key in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
            )
        },
        "platform": platform.platform(),
    }


def measure(work: Path, seconds: float, trace: bool, workload: Workload) -> dict:
    """Run the pipeline on ``work/config.json`` for ``seconds``.

    The workload's calibration kernel runs before the first run
    and after every run, and each run's times are scaled to the reference
    speed with the kernel times on either side of it. With ``trace`` every iteration is an
    untraced run followed by a traced one, so the two medians come from
    interleaved runs and their difference is the tracing overhead.
    """
    config = work / "config.json"
    out_dir = work / "out"
    failed = 0
    errors: list[str] = []
    wall: list[float] = []
    samples: list[float] = []
    traced_samples: list[float] = []
    layer_runs: list[dict] = []
    nesting_ok = True
    obs_rmse = None
    calibration = workload.calibration

    try:
        _run(config)
    except Exception as exc:
        raise SystemExit(f"warm-up run failed: {type(exc).__name__}: {exc}") from exc
    reference = output_digests(out_dir)
    # the pipeline's peak, taken before the calibration kernel first loads
    # numpy.random and OpenBLAS buffers of its own (about 6 MB)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from calibrate import kernel, speed_factor

    kernel_times = [kernel(calibration)]
    attempted = 1

    def attempt(run):
        """(outcome, speed factor), or None when the run fails."""
        nonlocal attempted, failed, obs_rmse
        attempted += 1
        try:
            outcome = run(config)
        except Exception as exc:  # a failed run is counted, and the loop goes on
            outcome = None
            errors.append(f"{type(exc).__name__}: {exc}")
        kernel_times.append(kernel(calibration))
        if outcome is not None and output_digests(out_dir) != reference:
            outcome = None
            errors.append("output digests differ from the warm-up run's")
        if outcome is None:
            failed += 1
            return None
        obs_rmse = outcome[1].report.rmse
        return outcome, speed_factor(calibration, kernel_times[-2], kernel_times[-1])

    deadline = perf_counter() + seconds
    while attempted < MIN_ATTEMPTS or perf_counter() < deadline:
        done = attempt(timed_run)
        if done is not None:
            (duration, _), factor = done
            wall.append(duration)
            samples.append(duration * factor)
        if trace:
            done = attempt(traced_run)
            if done is not None:
                (duration, _, tracer), factor = done
                traced_samples.append(duration * factor)
                nesting_ok &= sum(tracer.self_times().values()) <= duration * (1 + 1e-9)
                layers = layer_metrics(tracer)
                layer_runs.append({
                    name: value * factor if name not in COUNT_METRICS else value
                    for name, value in layers.items()
                })
    if not samples or (trace and not layer_runs):
        raise SystemExit("no run succeeded: " + "; ".join(errors[:3]))

    scores, checks = check_outputs(work, workload, obs_rmse)
    checks["no_failed_runs"] = failed == 0
    result = {
        **scores,
        "samples": samples,
        "wall_samples": wall,
        "kernel_samples": kernel_times,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "digests": reference,
        "obs_rmse": obs_rmse,
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_end_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "env": environment(),
    }
    if trace:
        checks["spans_nest"] = nesting_ok
        checks["counts_repeat"] = all(
            run[name] == layer_runs[0][name] for run in layer_runs for name in COUNT_METRICS
        )
        layers = {
            name: (layer_runs[0][name] if name in COUNT_METRICS
                   else statistics.median(run[name] for run in layer_runs))
            for name in layer_runs[0]
        }
        layers["trace.run_s"] = statistics.median(traced_samples)
        layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(samples)
        result["traced_samples"] = traced_samples
        result["layers"] = layers
    return result
