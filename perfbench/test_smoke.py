"""Smoke test of the benchmark itself, at tiny scenario sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from measure import _run, check_outputs, traced_run  # noqa: E402
from run import ROOT, run_benchmark  # noqa: E402
from tracing import COUNT_METRICS, current_bindings, layer_metrics  # noqa: E402
from workloads import WORKLOADS, tiny, write_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# a layer metric each workload must exercise, and one it must bypass
EXERCISED = {
    "knn-ff27": ("region.buffer_tests", "hyppo.loo_evals"),
    "knn-dense": ("features.distance_pairs", "region.points_tested"),
    "hyppo-deg3": ("hyppo.loo_fallbacks", "region.buffer_tests"),
    "rf-tune": ("forest.trees_grown", "features.distance_pairs"),
}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_emitted(name, trace, section):
    record = run_benchmark(tiny(WORKLOADS[name]), seed=3, seconds=0, trace=trace)
    result = record["result"]
    assert result["correct"], record["measure"]["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
    assert all(isinstance(value["value"], (int, float)) for value in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_nest_repeat_and_unpatch(name, tmp_path):
    write_inputs(tiny(WORKLOADS[name]), 5, tmp_path)
    before = current_bindings()
    runs = [traced_run(tmp_path / "config.json") for _ in range(2)]
    assert all(a is b for a, b in zip(current_bindings(), before))

    metrics = [layer_metrics(tracer) for _, _, tracer in runs]
    for duration, _, tracer in runs:
        assert sum(tracer.self_times().values()) <= duration * (1 + 1e-9)
        assert all(t > -1e-9 for t in tracer.self_times().values())
    assert {m: metrics[0][m] for m in COUNT_METRICS} == {m: metrics[1][m] for m in COUNT_METRICS}
    used, bypassed = EXERCISED[name]
    assert metrics[0][used] > 0 and metrics[0][bypassed] == 0


@pytest.mark.parametrize("name", ["knn-ff27", "knn-dense"])
def test_checks_catch_a_changed_prediction(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    write_inputs(workload, 7, tmp_path)
    rmse = _run(tmp_path / "config.json").report.rmse
    assert all(check_outputs(tmp_path, workload, rmse)[1].values())

    path = tmp_path / "out" / "prediction.asc"
    lines = path.read_text().splitlines()
    row = len(lines) // 2
    cells = lines[row].split()
    col = max(i for i, v in enumerate(cells) if float(v) != -9999.0)
    cells[col] = repr(float(cells[col]) + 0.01)
    lines[row] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    checks = check_outputs(tmp_path, workload, rmse)[1]
    assert not checks["reference_values"] and not checks["aggregation_matches"]


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("work", "results", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knn-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
