"""Harmonization of fine predictions to the coarse grid and residual metrics.

Per-cell aggregation uses exact summation (math.fsum), so a coarse cell
whose fine points all carry the same value averages back to that value bit
for bit. r2 is the squared Pearson correlation, computed without a square
root so identical inputs give exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UsageError
from .grid import Grid, PointTable


@dataclass(frozen=True)
class ResidualReport:
    """Aggregated-vs-observed comparison on the coarse grid.

    r2 is None when fewer than 2 paired cells exist; r2_degenerate marks the
    zero-variance case (r2 then reported as 0).
    """

    aggregated: Grid
    observed: Grid
    residual: Grid
    relative_residual: Grid
    r2: float | None
    rmse: float
    n_cells: int
    r2_degenerate: bool = False


def refuse_nodata(name: str, values: np.ndarray, nodata: float) -> None:
    """Raise UsageError if any of a grid's data values equals its nodata
    value: written, such a value would read back as a gap."""
    clash = np.count_nonzero(values == nodata)
    if clash:
        raise UsageError(f"{clash} {name} value(s) equal the nodata value {nodata!r}")


def aggregate_fine_to_coarse(fine: PointTable, coarse: Grid) -> Grid:
    """Mean of the fine-point targets landing in each coarse cell.

    Points outside the coarse extent are ignored; cells receiving no point
    become nodata, and a mean equal to nodata is refused. Sums are exact, so
    the result is independent of point order.
    """
    if len(fine) == 0:
        raise UsageError("aggregate_fine_to_coarse needs a non-empty point table")
    values = fine.require_targets()
    cells = coarse.cell_numbers(fine.lon, fine.lat)
    cells += 1  # 0 outside, as bincount takes no -1
    counts = np.bincount(cells, minlength=coarse.nrows * coarse.ncols + 1)
    order = np.argsort(cells, kind="stable")
    del cells
    # one sorted copy of the targets: the points outside, then cell by cell
    ranked = values[order]
    del order
    # cell c's points are ranked[ends[c]:ends[c + 1]]
    ends = np.cumsum(counts)
    filled = np.flatnonzero(counts[1:])
    out = np.full((coarse.nrows, coarse.ncols), coarse.nodata)
    out.flat[filled] = [math.fsum(ranked[a:b]) / (b - a)
                        for a, b in zip(ends[filled].tolist(), ends[filled + 1].tolist())]
    refuse_nodata("aggregated", out.flat[filled], coarse.nodata)
    return coarse.with_values(out)


def pearson_r2(a: np.ndarray, b: np.ndarray):
    """(r2, degenerate): squared Pearson correlation of two paired samples.

    Computed as S_ab^2 / (S_aa * S_bb); zero variance in either sample is
    degenerate and reports (0.0, True).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b) or len(a) < 2:
        raise UsageError("pearson_r2 needs two samples of equal length >= 2")
    # constant samples are degenerate even when subtracting a rounded mean
    # would leave a nonzero remainder
    if a.min() == a.max() or b.min() == b.max():
        return 0.0, True
    da = a - np.mean(a)
    db = b - np.mean(b)
    s_aa = float(np.sum(da * da))
    s_bb = float(np.sum(db * db))
    s_ab = float(np.sum(da * db))
    if s_aa == 0.0 or s_bb == 0.0:
        return 0.0, True
    return (s_ab * s_ab) / (s_aa * s_bb), False


def residual_report(aggregated: Grid, observed: Grid) -> ResidualReport:
    """Per-cell residuals and global agreement metrics.

    A residual cell is nodata iff either input is nodata there; the relative
    residual is additionally nodata where the observed value is 0. A
    residual equal to the observed nodata value is refused.
    """
    if not aggregated.same_header(observed):
        raise UsageError("aggregated and observed grids must share a header")
    nodata = observed.nodata
    paired = aggregated.data_mask & observed.data_mask
    residual = np.full(observed.values.shape, nodata)
    relative = np.full(observed.values.shape, nodata)
    residual[paired] = aggregated.values[paired] - observed.values[paired]
    nonzero = paired & (observed.values != 0.0)
    relative[nonzero] = (aggregated.values[nonzero] - observed.values[nonzero]) / observed.values[
        nonzero
    ]
    refuse_nodata("residual", residual[paired], nodata)
    refuse_nodata("relative residual", relative[nonzero], nodata)
    n_cells = int(paired.sum())
    if n_cells:
        res = residual[paired]
        rmse = float(np.sqrt(np.mean(res * res)))
    else:
        rmse = float("nan")
    if n_cells >= 2:
        r2, degenerate = pearson_r2(aggregated.values[paired], observed.values[paired])
    else:
        r2, degenerate = None, False
    return ResidualReport(
        aggregated=aggregated,
        observed=observed,
        residual=observed.with_values(residual),
        relative_residual=observed.with_values(relative),
        r2=r2,
        rmse=rmse,
        n_cells=n_cells,
        r2_degenerate=degenerate,
    )


def format_metrics(report: ResidualReport) -> str:
    """One-line summary: r2=<v> rmse=<v> n=<v>."""
    r2 = "absent" if report.r2 is None else repr(report.r2)
    return f"r2={r2} rmse={report.rmse!r} n={report.n_cells}"


def scatter_export(aggregated: Grid, observed: Grid, path) -> None:
    """CSV of paired cells: lon, lat, observed, predicted (one row per cell
    with data in both grids, row-major grid order)."""
    if not aggregated.same_header(observed):
        raise UsageError("aggregated and observed grids must share a header")
    paired = aggregated.data_mask & observed.data_mask
    lons, lats = observed.centroid_arrays()
    columns = (lons[paired], lats[paired], observed.values[paired], aggregated.values[paired])
    lines = ["lon,lat,observed,predicted"]
    lines.extend(",".join(map(repr, row)) for row in zip(*(col.tolist() for col in columns)))
    Path(path).write_text("\n".join(lines) + "\n")
