"""finegrid benchmark: time run_pipeline on seeded synthetic inputs.

    python3 perfbench/run.py --workload knn-ff27 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. One child process generates the inputs
(``make_scenario``, ``Scenario.dump``, config) several times and reports the
median set-up time; a second, fresh child times repeated ``load_config`` +
``run_pipeline`` calls on them for ``--seconds``. With ``--trace 1`` the
second child interleaves untraced runs with runs traced layer by layer and
reports per-layer metrics instead of the end-to-end ones. The last line of
standard output is the JSON result; the full record (every sample, output
digests, environment) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_TIMEOUT_S = 45
MEASURE_GRACE_S = 90  # beyond --seconds: imports, warm-up, the last run, checks


class BenchError(Exception):
    pass


END_TO_END_UNITS = {"run_s": "s", "cells_per_s": "cells/s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio"), ("_rmse", "m3/m3")):
        if metric.endswith(suffix):
            return unit
    return "count"


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _stage(stage: str, work: Path, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "stage.py"), stage, str(work)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{stage} stage failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads((work / f"{stage}.json").read_text())


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    src = ROOT / "src"
    if not (src / "finegrid" / "__init__.py").is_file():
        raise BenchError(f"no finegrid sources under {src}")
    work = HERE / "work" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    request = {
        "workload": workload.to_json(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "src": str(src),
    }
    (work / "request.json").write_text(json.dumps(request, indent=1) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    try:
        setup = _stage("setup", work, env, SETUP_TIMEOUT_S)
        measured = _stage("measure", work, env, seconds + MEASURE_GRACE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_s = statistics.median(measured["samples"])
    if trace:
        values = dict(measured["layers"])
        values["synth.scenario_s"] = setup["scenario_s"]
        values["synth.dump_s"] = setup["dump_s"]
        values["accuracy.truth_rmse"] = measured["truth_rmse"]
        values["accuracy.obs_rmse"] = measured["obs_rmse"]
    else:
        values = {
            "run_s": run_s,
            "cells_per_s": measured["cells"] / run_s,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    result = {
        "correct": all(measured["checks"].values()),
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
    }
    env_record = measured.pop("env")
    env_record.update(git_commit=git_commit(ROOT), source_sha256=source_digest(src))
    return {
        "workload": workload.to_json(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "run_s_median": run_s,
        "runs_timed": len(measured["samples"]),
        "setup": setup,
        "measure": measured,
        "env": env_record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    measured = record["measure"]
    raw = statistics.median(measured["wall_samples"])
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"run_s median {record['run_s_median']:.4f} s of {record['runs_timed']} runs "
        f"(raw wall median {raw:.4f} s), failed {measured['failed']}/{measured['attempted']}, "
        f"truth_rmse {measured['truth_rmse']:.5f}, obs_rmse {measured['obs_rmse']:.5f}, "
        f"checks {measured['checks']}; record in {path.relative_to(ROOT)}"
    )
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
