"""Child-process entry for the two benchmark stages.

    python3 perfbench/stage.py setup   <work_dir>
    python3 perfbench/stage.py measure <work_dir>

Each reads ``<work_dir>/request.json``, written by run.py, and writes its
result to ``<work_dir>/<stage>.json``. finegrid must be importable from the
checkout's ``src`` directory named in the request.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import Workload, write_inputs

SETUP_REPEATS = 5
SETUP_MIN_S = 1.5  # small workloads set up in 20 ms; repeat them so the median is steady


def _check_import(src: Path) -> None:
    import finegrid

    where = Path(finegrid.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"finegrid was imported from {where}, not from {src}")


def setup(work: Path, request: dict) -> dict:
    """Generate the inputs at least ``SETUP_REPEATS`` times and for at least
    ``SETUP_MIN_S``; the last copy is the one measured. Times are scaled to
    the reference speed like the pipeline runs', with the scalar-Python
    kernel, since writing grid text dominates set-up."""
    from calibrate import kernel, speed_factor

    workload = Workload.from_json(request["workload"])
    runs = []
    kernel_times = [kernel("python")]
    deadline = perf_counter() + SETUP_MIN_S
    while len(runs) < SETUP_REPEATS or perf_counter() < deadline:
        times = write_inputs(workload, request["seed"], work)
        kernel_times.append(kernel("python"))
        factor = speed_factor("python", kernel_times[-2], kernel_times[-1])
        runs.append({key: value * factor for key, value in times.items()})
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]} | {
        "setup_samples": [run["setup_s"] for run in runs],
        "kernel_samples": kernel_times,
    }


def main(argv: list[str]) -> int:
    stage, work = argv[0], Path(argv[1])
    request = json.loads((work / "request.json").read_text())
    _check_import(Path(request["src"]))
    if stage == "setup":
        result = setup(work, request)
    elif stage == "measure":
        from measure import measure

        workload = Workload.from_json(request["workload"])
        result = measure(work, request["seconds"], request["trace"], workload)
    else:
        raise SystemExit(f"unknown stage {stage!r}")
    (work / f"{stage}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
