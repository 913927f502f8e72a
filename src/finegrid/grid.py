"""Raster data model: uniform lon/lat grids, ESRI ASCII I/O, and point tables.

Grids are stored with row 0 as the northernmost row, matching the on-disk
ESRI ASCII layout. All coordinate math goes through the cell-centroid
formula so the half-cell offset is applied in exactly one place.

Grid text I/O is one numpy pass per body: ``np.loadtxt`` parses it and
``repr`` over ``tolist()`` rows formats it, so write followed by read is
bit-exact. A line-by-line scan runs only to name the line of a parse error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, UsageError

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(frozen=True, eq=False)
class Grid:
    """A georeferenced raster with uniform square cells in lon/lat degrees.

    Cells whose value equals ``nodata`` are missing. ``values[0, :]`` is the
    northernmost row. The centroid of cell ``(r, c)`` is
    ``(xll + (c + 0.5) * cellsize, yll + (nrows - r - 0.5) * cellsize)``.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ncols", int(self.ncols))
        object.__setattr__(self, "nrows", int(self.nrows))
        object.__setattr__(self, "xll", float(self.xll))
        object.__setattr__(self, "yll", float(self.yll))
        object.__setattr__(self, "cellsize", float(self.cellsize))
        object.__setattr__(self, "nodata", float(self.nodata))
        if self.ncols < 1 or self.nrows < 1:
            raise UsageError("grid needs at least one row and one column")
        if not self.cellsize > 0:
            raise UsageError("cellsize must be positive")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.nrows, self.ncols):
            raise UsageError(
                f"values shape {v.shape} does not match (nrows, ncols) = "
                f"({self.nrows}, {self.ncols})"
            )
        if not np.isfinite(v).all():
            raise UsageError("grid values must be finite; use the nodata sentinel for gaps")
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self.same_header(other) and bool(np.array_equal(self.values, other.values))

    def same_header(self, other: "Grid") -> bool:
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and self.xll == other.xll
            and self.yll == other.yll
            and self.cellsize == other.cellsize
        )

    @property
    def data_mask(self) -> np.ndarray:
        """Boolean mask of cells that hold data (True = not nodata)."""
        return self.values != self.nodata

    def centroid(self, row, col):
        """Lon/lat centroid of cell ``(row, col)``; integer arrays give arrays."""
        lon = self.xll + (col + 0.5) * self.cellsize
        lat = self.yll + (self.nrows - row - 0.5) * self.cellsize
        return lon, lat

    def cell_index(self, lon: float, lat: float) -> tuple[int, int] | None:
        """Cell containing the point, or None if outside the grid extent.

        Left and bottom cell edges belong to the cell; right and top edges
        belong to the neighbor, so every point maps to at most one cell and
        a cell's own lower-left corner maps back to it.
        """
        col = math.floor((lon - self.xll) / self.cellsize)
        row_from_bottom = math.floor((lat - self.yll) / self.cellsize)
        if col < 0 or col >= self.ncols or row_from_bottom < 0 or row_from_bottom >= self.nrows:
            return None
        return self.nrows - 1 - row_from_bottom, col

    def cell_index_arrays(self, lons: np.ndarray, lats: np.ndarray):
        """Vectorized :meth:`cell_index`.

        Returns ``(rows, cols, inside)``; rows/cols are only meaningful where
        ``inside`` is True.
        """
        lons = np.asarray(lons, dtype=float)
        lats = np.asarray(lats, dtype=float)
        cols = np.floor((lons - self.xll) / self.cellsize).astype(np.int64)
        rfb = np.floor((lats - self.yll) / self.cellsize).astype(np.int64)
        inside = (cols >= 0) & (cols < self.ncols) & (rfb >= 0) & (rfb < self.nrows)
        rows = self.nrows - 1 - rfb
        return rows, cols, inside

    def centroid_arrays(self):
        """Lon/lat centroids of all cells as two (nrows, ncols) arrays."""
        lons, lats = self.centroid(np.arange(self.nrows)[:, None], np.arange(self.ncols))
        shape = (self.nrows, self.ncols)
        return np.broadcast_to(lons, shape), np.broadcast_to(lats, shape)

    def with_values(self, values: np.ndarray) -> "Grid":
        """New grid sharing this header with different cell values."""
        return replace(self, values=values)


@dataclass(frozen=True, eq=False)
class PointTable:
    """Point records: lon/lat coordinates, a target, and covariates.

    ``target`` uses NaN for missing values. ``covariates`` is an (n, p) array
    whose columns are known by position only; p = 0 is allowed for
    coordinates-only modeling.
    """

    lon: np.ndarray
    lat: np.ndarray
    target: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        lon = np.atleast_1d(np.asarray(self.lon, dtype=float))
        lat = np.atleast_1d(np.asarray(self.lat, dtype=float))
        target = np.atleast_1d(np.asarray(self.target, dtype=float))
        covs = np.asarray(self.covariates, dtype=float)
        if covs.ndim != 2:
            raise UsageError("covariates must be an (n, p) array")
        n = len(lon)
        if len(lat) != n or len(target) != n or covs.shape[0] != n:
            raise UsageError("lon, lat, target, and covariates must have matching lengths")
        if n and not (np.isfinite(lon).all() and np.isfinite(lat).all()):
            raise UsageError("point coordinates must be finite")
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "covariates", covs)

    def __len__(self) -> int:
        return len(self.lon)

    def __eq__(self, other):
        if not isinstance(other, PointTable):
            return NotImplemented
        return (
            np.array_equal(self.lon, other.lon)
            and np.array_equal(self.lat, other.lat)
            and np.array_equal(self.target, other.target, equal_nan=True)
            and np.array_equal(self.covariates, other.covariates)
        )

    @property
    def p(self) -> int:
        """Covariate width."""
        return self.covariates.shape[1]

    def subset(self, mask_or_indices) -> "PointTable":
        """Rows selected by a boolean mask or index array, order preserved."""
        return PointTable(
            self.lon[mask_or_indices],
            self.lat[mask_or_indices],
            self.target[mask_or_indices],
            self.covariates[mask_or_indices],
        )

    def with_target(self, target: np.ndarray) -> "PointTable":
        return PointTable(self.lon, self.lat, target, self.covariates)

    def require_targets(self) -> np.ndarray:
        """Targets as an array, raising if any record is missing one."""
        if len(self) == 0:
            raise UsageError("point table is empty")
        if not np.isfinite(self.target).all():
            raise UsageError("operation requires a target value on every record")
        return self.target


def read_ascii_grid(path) -> Grid:
    """Read an ESRI ASCII grid file.

    Header keys are case-insensitive but must appear in the canonical order
    (ncols, nrows, xllcorner, yllcorner, cellsize, NODATA_value). Blank body
    lines are skipped. The body is parsed by one ``np.loadtxt`` pass, which
    accepts ASCII decimal tokens (and ``inf``/``nan`` spellings, which
    :class:`Grid` then rejects) and gives the same doubles as ``float``.
    Tokens that only Python's ``float`` accepts, digit-group underscores
    (``1_0``) and non-ASCII digits, are not ESRI ASCII and are rejected.
    Raises :class:`ParseError` naming the offending line on any format
    violation.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read grid file: {exc}", path=path) from exc

    header = {}
    for i, key in enumerate(_HEADER_KEYS):
        if i >= len(lines):
            raise ParseError(f"missing header line '{key}'", path=path, line=i + 1)
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise ParseError(f"expected header line '{key} <value>'", path=path, line=i + 1)
        try:
            # int() and float() also take "1_0" and non-ASCII digits; the body does not
            if not parts[1].isascii() or "_" in parts[1]:
                raise ValueError(parts[1])
            header[key] = int(parts[1]) if key in ("ncols", "nrows") else float(parts[1])
        except ValueError as exc:
            raise ParseError(f"non-numeric header value for '{key}'", path=path, line=i + 1) from exc

    ncols, nrows = header["ncols"], header["nrows"]
    if ncols < 1 or nrows < 1:
        raise ParseError("ncols and nrows must be positive", path=path, line=1)

    body = lines[len(_HEADER_KEYS):]
    values = None
    # an all-blank body goes straight to the scan: loadtxt would warn on it
    if any(line.strip() for line in body):
        try:
            values = np.loadtxt(body, comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (nrows, ncols):
        raise _body_error(body, ncols, nrows, path)

    return Grid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header["nodata_value"],
        values=values,
    )


def _body_error(body: list[str], ncols: int, nrows: int, path: Path) -> ParseError:
    """The line-numbered error for a body that ``np.loadtxt`` rejected.

    Runs only after the fast parse has failed. It accepts exactly the tokens
    that ``np.loadtxt`` accepts, so it finds the fault the parse stopped at.
    """
    found = 0
    for i, line in enumerate(body, start=len(_HEADER_KEYS) + 1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != ncols:
            return ParseError(
                f"data row has {len(tokens)} values, expected {ncols}", path=path, line=i
            )
        for token in tokens:
            # float() also takes "1_0" and non-ASCII digits; loadtxt does not
            if not token.isascii() or "_" in token:
                return ParseError("non-numeric data token", path=path, line=i)
            try:
                float(token)
            except ValueError:
                return ParseError("non-numeric data token", path=path, line=i)
        found += 1
    return ParseError(f"found {found} data rows, expected {nrows}", path=path)


def write_ascii_grid(grid: Grid, path) -> None:
    """Write a grid as ESRI ASCII.

    Values are printed with ``repr`` (shortest digit string that parses back
    to the identical double), so write followed by read is the identity.
    """
    path = Path(path)
    out = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {grid.xll!r}",
        f"yllcorner {grid.yll!r}",
        f"cellsize {grid.cellsize!r}",
        f"NODATA_value {grid.nodata!r}",
    ]
    # one row of Python floats at a time: the whole grid as a list would
    # raise peak memory by 32 bytes a cell
    out.extend(" ".join(map(repr, row.tolist())) for row in grid.values)
    try:
        path.write_text("\n".join(out) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write grid file {path}: {exc}") from exc


def monthly_mean(days: list[Grid], min_count: int = 1) -> Grid:
    """Per-cell arithmetic mean of the non-nodata values across daily grids.

    A cell is nodata in the result iff fewer than ``min_count`` inputs have
    data there. All inputs must share an identical header.
    """
    if not days:
        raise UsageError("monthly_mean needs at least one grid")
    if min_count < 1:
        raise UsageError("min_count must be at least 1")
    first = days[0]
    for g in days[1:]:
        if not first.same_header(g) or g.nodata != first.nodata:
            raise UsageError("monthly_mean inputs must share an identical header")
    total = np.zeros_like(first.values)
    count = np.zeros(first.values.shape, dtype=int)
    for g in days:
        mask = g.data_mask
        total[mask] += g.values[mask]
        count += mask
    mean = np.divide(total, count, out=np.full_like(total, first.nodata), where=count > 0)
    result = np.where(count >= min_count, mean, first.nodata)
    return first.with_values(result)


def grid_to_points(grid: Grid) -> PointTable:
    """One record per non-nodata cell: centroid coordinates and the cell value."""
    mask = grid.data_mask
    lons, lats = grid.centroid_arrays()
    return PointTable(lons[mask], lats[mask], grid.values[mask], np.zeros((mask.sum(), 0)))


def grid_centroids(grid: Grid) -> PointTable:
    """One record per cell (data or not) with no target: a prediction lattice."""
    lons, lats = grid.centroid_arrays()
    n = grid.nrows * grid.ncols
    return PointTable(
        lons.ravel().copy(), lats.ravel().copy(), np.full(n, np.nan), np.zeros((n, 0))
    )


def sample_covariates(points: PointTable, layers: list[Grid], layer_names: list[str]) -> PointTable:
    """Append one covariate per layer, read by nearest-cell lookup.

    ``layer_names`` must hold one entry per layer; it names no column, since
    a table's columns are known by position only. Records that fall outside
    the layers' extent, or that hit nodata in any layer, are dropped; the
    drop count is ``len(points) - len(result)``.
    """
    if len(points) == 0:
        raise UsageError("sample_covariates needs a non-empty point table")
    if not layers:
        raise UsageError("sample_covariates needs at least one layer")
    if len(layers) != len(layer_names):
        raise UsageError(f"{len(layers)} layers but {len(layer_names)} names")
    first = layers[0]
    for g in layers[1:]:
        if not first.same_header(g):
            raise UsageError("covariate layers must share an identical header")

    rows, cols, inside = first.cell_index_arrays(points.lon, points.lat)
    rows_safe = np.clip(rows, 0, first.nrows - 1)
    cols_safe = np.clip(cols, 0, first.ncols - 1)
    keep = inside.copy()
    sampled = np.empty((len(points), len(layers)))
    for j, layer in enumerate(layers):
        vals = layer.values[rows_safe, cols_safe]
        keep &= inside & (vals != layer.nodata)
        sampled[:, j] = vals

    kept = points.subset(keep)
    return PointTable(kept.lon, kept.lat, kept.target, np.hstack([kept.covariates, sampled[keep]]))
