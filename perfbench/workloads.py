"""Benchmark workloads and the set-up step that turns a seed into input files.

Every workload is a ``make_scenario`` call plus a pipeline config. The fine
prediction grid always equals the scenario's truth grid (``fine_factor`` is
the scenario's ``coarse_factor``), so ``prediction.asc`` can be scored cell by
cell against ``truth.asc``. Sizes are chosen so that one pipeline run takes
0.7-1.2 s on a 2-CPU machine, which leaves a dozen or more timed runs
in a 20-second measurement.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter

N_COVARIATES = 4
NOISE_STDEV = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # the fine (= truth) grid is size x size cells
    coarse_factor: int
    calibration: str  # the calibrate.KERNELS entry doing the dominant layer's kind of work
    settings: dict = field(default_factory=dict)  # pipeline config keys
    gap_fraction: float = 0.2
    # gate on accuracy: the prediction must beat the constant predictor
    beats_constant: bool = True

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "Workload":
        return cls(**doc)


WORKLOADS = {
    w.name: w
    for w in (
        # 8x8 coarse cells leave 19-36 training cells in the buffered region,
        # and the mean of 12 of them loses to the constant predictor on some
        # seeds (16, 17 and 1449574319, among others) without any fault, so
        # this run is checked against reference.knn_check instead
        Workload(
            name="knn-ff27",
            size=216,
            coarse_factor=27,
            calibration="python",
            settings={
                "method": "knn",
                "k": 12,
                "weighting": "uniform",
                "region_file": "region.geojson",
                "buffer_km": 50.0,
                "report_region_file": "region.geojson",
                "pca": True,
                "render": True,
            },
            beats_constant=False,
        ),
        Workload(
            name="knn-dense",
            size=128,
            coarse_factor=4,
            calibration="arrays",
            settings={"method": "knn", "k": 12, "weighting": "inverse-distance"},
        ),
        # no gaps, so the training lattice, and with it which 512-query
        # chunks hit a singular fold, is the same for every seed; with gaps
        # the fallback count, and the run time, varied 2.7x from seed to seed
        Workload(
            name="hyppo-deg3",
            size=48,
            coarse_factor=4,
            calibration="solves",
            settings={
                "method": "hyppo",
                "k": 12,
                "max_degree": 3,
                "region_file": "region.geojson",
                "buffer_km": 0.0,
            },
            gap_fraction=0.0,
        ),
        Workload(
            name="rf-tune",
            size=128,
            coarse_factor=8,
            calibration="splits",
            settings={"method": "rf", "mtry": "tune", "ntree": 15, "folds": 5, "min_leaf": 5},
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A scaled-down copy with the same code paths, for the smoke test."""
    size, overrides = {
        "knn-ff27": (108, {"k": 6}),  # a 4x4 coarse grid leaves about 10 training cells
        "knn-dense": (32, {}),
        "hyppo-deg3": (32, {}),  # 16 training cells, 256 queries
        "rf-tune": (64, {"ntree": 3}),
    }[workload.name]
    return replace(workload, size=size, settings={**workload.settings, **overrides})


def pipeline_config(workload: Workload, scenario_manifest: dict, seed: int) -> dict:
    config = {
        "observed_grid": scenario_manifest["observed"],
        "covariate_layers": scenario_manifest["covariates"],
        "output_dir": "out",
        "fine_factor": workload.coarse_factor,
        "seed": seed,
    }
    config.update(workload.settings)
    return config


def write_inputs(workload: Workload, seed: int, dest: Path) -> dict:
    """Generate the scenario for ``seed``, dump it and write ``config.json``.

    Returns the wall time of each step; ``setup_s`` is their total.
    """
    from finegrid import make_scenario

    t0 = perf_counter()
    scenario = make_scenario(
        seed,
        (workload.size, workload.size),
        coarse_factor=workload.coarse_factor,
        n_covariates=N_COVARIATES,
        noise_stdev=NOISE_STDEV,
        gap_fraction=workload.gap_fraction,
    )
    t1 = perf_counter()
    manifest = scenario.dump(dest)
    t2 = perf_counter()
    config = pipeline_config(workload, manifest, seed)
    (Path(dest) / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    t3 = perf_counter()
    return {"scenario_s": t1 - t0, "dump_s": t2 - t1, "setup_s": t3 - t0}
