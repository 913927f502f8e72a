"""Synthetic scenarios with known ground truth for data-free testing.

A scenario is a smooth moisture-like truth field on a fine grid, covariate
layers derived from the truth through monotone transforms plus seeded noise,
and a coarse observed grid built from block means of the truth with optional
noise and contiguous gap blobs. Everything is a pure function of the seed.

The domain is centered on the equator so that degree-based geometry and
km-based buffers stay commensurate (1 degree is about 111 km there).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import ResidualReport, aggregate_fine_to_coarse, residual_report
from .errors import UsageError
from .grid import Grid, PointTable, write_ascii_grid
from .region import Region, write_region

FINE_CELLSIZE = 0.025
MOISTURE_LO = 0.05
MOISTURE_HI = 0.45

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Scenario:
    """Generated inputs plus the ground truth they were built from."""

    truth: Grid
    covariate_layers: tuple
    covariate_names: tuple
    observed: Grid
    region: Region
    seed: int

    def dump(self, out_dir) -> dict:
        """Write all scenario artifacts as ordinary input files.

        Returns a manifest dict naming every file written. A directory or
        file that cannot be written is a UsageError naming the directory.
        """
        out = Path(out_dir)
        manifest = {
            "seed": self.seed,
            "observed": "observed.asc",
            "truth": "truth.asc",
            "covariates": [f"{name}.asc" for name in self.covariate_names],
            "region": "region.geojson",
        }
        try:
            out.mkdir(parents=True, exist_ok=True)
            write_ascii_grid(self.observed, out / "observed.asc")
            write_ascii_grid(self.truth, out / "truth.asc")
            for name, layer in zip(self.covariate_names, self.covariate_layers):
                write_ascii_grid(layer, out / f"{name}.asc")
            write_region(self.region, out / "region.geojson")
            (out / "scenario.json").write_text(json.dumps(manifest, indent=2) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write scenario to {out}: {exc}") from exc
        return manifest


def _truth_field(rng, nrows: int, ncols: int) -> np.ndarray:
    """Sum of random Gaussian bumps plus a linear trend, rescaled into the
    moisture band."""
    u = (np.arange(ncols) + 0.5) / ncols
    v = (np.arange(nrows) + 0.5) / nrows
    uu, vv = np.meshgrid(u, v)
    field = np.zeros((nrows, ncols))
    for _ in range(int(rng.integers(4, 9))):
        cu, cv = rng.random(2)
        width = rng.uniform(0.08, 0.25)
        amp = rng.uniform(-1.0, 1.0)
        field += amp * np.exp(-(((uu - cu) ** 2) + (vv - cv) ** 2) / (2.0 * width * width))
    field += rng.uniform(-1.0, 1.0) * uu + rng.uniform(-1.0, 1.0) * vv
    lo, hi = field.min(), field.max()
    if hi == lo:
        return np.full((nrows, ncols), (MOISTURE_LO + MOISTURE_HI) / 2.0)
    return MOISTURE_LO + (MOISTURE_HI - MOISTURE_LO) * (field - lo) / (hi - lo)


# monotone transforms keeping covariates correlated with the truth while
# varying scale and sign; truth values are strictly positive so all are safe
_TRANSFORMS = (
    lambda t: t,
    lambda t: np.log(t),
    lambda t: t * t,
    lambda t: 1.0 / t,
    lambda t: np.sqrt(t),
    lambda t: -t,
)


def _gap_mask(rng, nrows: int, ncols: int, gap_fraction: float) -> np.ndarray:
    """Contiguous blobs of gap cells, exactly round(gap_fraction * n) of them.

    Each blob starts on a random unmarked cell and random-walks, marking
    cells as it goes, which mimics the connected no-retrieval areas of real
    products rather than salt-and-pepper dropout.
    """
    marked = np.zeros((nrows, ncols), dtype=bool)
    target = round(gap_fraction * nrows * ncols)
    total = 0
    while total < target:
        open_rows, open_cols = np.nonzero(~marked)
        start = int(rng.integers(0, len(open_rows)))
        r, c = int(open_rows[start]), int(open_cols[start])
        budget = int(rng.integers(5, 20))
        for _ in range(budget * 4):
            if total >= target:
                break
            if not marked[r, c]:
                marked[r, c] = True
                total += 1
            dr, dc = ((-1, 0), (1, 0), (0, -1), (0, 1))[int(rng.integers(0, 4))]
            r = min(max(r + dr, 0), nrows - 1)
            c = min(max(c + dc, 0), ncols - 1)
    return marked


def make_scenario(
    seed: int,
    fine_shape: tuple[int, int] = (128, 128),
    coarse_factor: int = 8,
    n_covariates: int = 4,
    noise_stdev: float = 0.0,
    gap_fraction: float = 0.0,
) -> Scenario:
    """Generate a deterministic scenario; see module docstring.

    fine_shape is (nrows, ncols) and must be divisible by coarse_factor.
    noise_stdev perturbs the observed coarse cells; gap_fraction of them
    become nodata, drawn as contiguous blobs.
    """
    nrows, ncols = fine_shape
    if nrows < 1 or ncols < 1:
        raise UsageError(f"fine shape {fine_shape} needs at least one row and one column")
    if coarse_factor < 2:
        raise UsageError("coarse_factor must be at least 2")
    if nrows % coarse_factor or ncols % coarse_factor:
        raise UsageError(f"fine shape {fine_shape} not divisible by coarse_factor {coarse_factor}")
    if not 0.0 <= gap_fraction < 1.0:
        raise UsageError("gap_fraction must lie in [0, 1)")
    if not 0.0 <= noise_stdev < np.inf:
        raise UsageError(f"noise_stdev must be a finite number >= 0, got {noise_stdev}")
    if n_covariates < 0:
        raise UsageError("n_covariates must be non-negative")

    rng = np.random.default_rng(seed & _SEED_MASK)
    xll = -(ncols * FINE_CELLSIZE) / 2.0
    yll = -(nrows * FINE_CELLSIZE) / 2.0
    truth_values = _truth_field(rng, nrows, ncols)
    truth = Grid(
        ncols=ncols, nrows=nrows, xll=xll, yll=yll, cellsize=FINE_CELLSIZE,
        nodata=-9999.0, values=truth_values,
    )

    layers = []
    names = []
    for j in range(n_covariates):
        base = _TRANSFORMS[j % len(_TRANSFORMS)](truth_values)
        spread = base.std()
        if spread > 0:
            base = base + rng.normal(0.0, 0.2 * spread, base.shape)
        layers.append(truth.with_values(base))
        names.append(f"cov{j + 1:02d}")

    crows, ccols = nrows // coarse_factor, ncols // coarse_factor
    f = coarse_factor
    # each block's values laid out contiguously, so each mean is the pairwise
    # sum np.mean over that block alone takes (a mean over axes (1, 3) is not)
    blocks = truth_values.reshape(crows, f, ccols, f).swapaxes(1, 2).reshape(crows, ccols, f * f)
    observed_values = blocks.mean(axis=2)
    if noise_stdev > 0:
        observed_values = observed_values + rng.normal(0.0, noise_stdev, observed_values.shape)
        observed_values = np.clip(observed_values, 0.0, 1.0)
    if gap_fraction > 0:
        observed_values = np.where(
            _gap_mask(rng, crows, ccols, gap_fraction), -9999.0, observed_values
        )
    observed = Grid(
        ncols=ccols, nrows=crows, xll=xll, yll=yll,
        cellsize=FINE_CELLSIZE * coarse_factor, nodata=-9999.0, values=observed_values,
    )

    ext_x, ext_y = ncols * FINE_CELLSIZE, nrows * FINE_CELLSIZE
    region = Region(
        rings=(
            (
                (xll + 0.25 * ext_x, yll + 0.25 * ext_y),
                (xll + 0.75 * ext_x, yll + 0.25 * ext_y),
                (xll + 0.75 * ext_x, yll + 0.75 * ext_y),
                (xll + 0.25 * ext_x, yll + 0.75 * ext_y),
            ),
        ),
        name="central",
    )
    return Scenario(truth, tuple(layers), tuple(names), observed, region, seed)


@dataclass(frozen=True)
class SynthEval:
    """Two reports: ``truth`` scores the predictions, averaged onto the truth
    grid, against the truth; ``report`` scores them against the observed grid."""

    truth: ResidualReport
    coverage: float
    report: ResidualReport


def holdout_eval(scenario: Scenario, predictions: PointTable) -> SynthEval:
    """Score predictions against the truth grid and the observed product.

    predictions carry predicted values as targets, one record per fine cell
    (or finer); coverage of at least 99% of truth cells is required.
    """
    on_truth = aggregate_fine_to_coarse(predictions, scenario.truth)
    truth_cells = scenario.truth.data_mask
    coverage = (on_truth.data_mask & truth_cells).sum() / truth_cells.sum()
    if coverage < 0.99:
        raise UsageError(f"predictions cover {coverage:.1%} of truth cells; need 99%")
    agg = aggregate_fine_to_coarse(predictions, scenario.observed)
    return SynthEval(
        truth=residual_report(on_truth, scenario.truth),
        coverage=float(coverage),
        report=residual_report(agg, scenario.observed),
    )
