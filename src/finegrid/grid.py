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
        if not all(map(math.isfinite, (self.xll, self.yll, self.cellsize, self.nodata))):
            raise UsageError("xll, yll, cellsize and nodata must be finite")
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

    def cell_numbers(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Row-major number of the cell each point falls in, or -1 outside:
        ``row * ncols + col`` with row 0 the northernmost.

        Left and bottom cell edges belong to the cell; right and top edges
        belong to the neighbor, so every point maps to at most one cell and
        a cell's own lower-left corner maps back to it. The range is tested
        on the floored floats, so a point however far away is never cast
        outside the int64 range.
        """
        col = np.subtract(np.asarray(lons, dtype=float), self.xll)
        col /= self.cellsize
        np.floor(col, out=col)
        row = np.subtract(np.asarray(lats, dtype=float), self.yll)  # from the bottom
        row /= self.cellsize
        np.floor(row, out=row)
        outside = ~((col >= 0) & (col < self.ncols) & (row >= 0) & (row < self.nrows))
        # column -1 of the top row numbers -1, and keeps a far point's inf
        # out of the arithmetic
        col[outside] = -1.0
        row[outside] = self.nrows - 1
        np.subtract(self.nrows - 1, row, out=row)  # from the top
        row *= self.ncols
        row += col
        del col
        return row.astype(np.int64)

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
    accepts ASCII decimal tokens (and ``inf``/``nan`` spellings, which are
    then refused by line) and gives the same doubles as ``float``.
    Tokens that only Python's ``float`` accepts, digit-group underscores
    (``1_0``) and non-ASCII digits, are not ESRI ASCII and are rejected.
    Header values must also be finite, and cellsize positive.
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
        if not math.isfinite(header[key]):
            raise ParseError(f"non-finite header value for '{key}'", path=path, line=i + 1)

    ncols, nrows = header["ncols"], header["nrows"]
    if ncols < 1 or nrows < 1:
        raise ParseError("ncols and nrows must be positive", path=path, line=1)
    if header["cellsize"] <= 0:
        raise ParseError("cellsize must be positive", path=path, line=5)

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
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        # the line of the first bad row, blank lines counted as _body_error counts them
        data_lines = [i for i, line in enumerate(body, start=len(_HEADER_KEYS) + 1)
                      if line.strip()]
        raise ParseError("non-finite data value; use the nodata sentinel for gaps",
                         path=path, line=data_lines[int(np.argmin(finite))])

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
    header = (
        f"ncols {grid.ncols}\n"
        f"nrows {grid.nrows}\n"
        f"xllcorner {grid.xll!r}\n"
        f"yllcorner {grid.yll!r}\n"
        f"cellsize {grid.cellsize!r}\n"
        f"NODATA_value {grid.nodata!r}\n"
    )
    try:
        with path.open("w") as out:
            out.write(header)
            # one row of text at a time: the whole grid's text, or the grid
            # as a list of Python floats, would be held at once
            for row in grid.values:
                out.write(" ".join(map(repr, row.tolist())) + "\n")
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
    stack = np.stack([g.values for g in days])
    mask = stack != first.nodata
    count = mask.sum(axis=0)
    # a running sum adds the days in day order whatever the grid shape (a sum
    # with where= goes pairwise on a one-cell grid). A nodata day adds +0.0;
    # the final + 0.0 turns an all -0.0 total into the +0.0 that a per-day
    # sum starting from +0.0 gives.
    stack[~mask] = 0.0
    total = np.add.accumulate(stack, axis=0, out=stack)[-1] + 0.0
    mean = np.divide(total, count, out=np.full_like(total, first.nodata), where=count > 0)
    result = np.where(count >= min_count, mean, first.nodata)
    return first.with_values(result)


def grid_to_points(grid: Grid) -> PointTable:
    """One record per non-nodata cell: centroid coordinates and the cell value."""
    mask = grid.data_mask
    lons, lats = grid.centroid_arrays()
    return PointTable(lons[mask], lats[mask], grid.values[mask], np.zeros((mask.sum(), 0)))


def grid_centroids(grid: Grid) -> PointTable:
    """One record per cell (data or not) with no target: a prediction lattice.

    The NaN target is one value broadcast to every record, not an array.
    """
    lons, lats = grid.centroid_arrays()
    n = grid.nrows * grid.ncols
    return PointTable(
        lons.ravel().copy(), lats.ravel().copy(), np.broadcast_to(np.nan, n), np.zeros((n, 0))
    )


def sample_covariates(points: PointTable, layers: list[Grid]) -> PointTable:
    """Append one covariate per layer, read by nearest-cell lookup.

    Columns follow the order of ``layers``. Records that fall outside the
    layers' extent, or that hit nodata in any layer, are dropped; the drop
    count is ``len(points) - len(result)``. When none drops, the result
    shares the input's lon, lat and target arrays.
    """
    if len(points) == 0:
        raise UsageError("sample_covariates needs a non-empty point table")
    if not layers:
        raise UsageError("sample_covariates needs at least one layer")
    first = layers[0]
    for g in layers[1:]:
        if not first.same_header(g):
            raise UsageError("covariate layers must share an identical header")

    cells = first.cell_numbers(points.lon, points.lat)
    # a point outside the layers reads the last cell (take counts -1 from
    # the end), and is dropped
    keep = cells >= 0
    for layer in layers:
        keep &= np.take(layer.values, cells) != layer.nodata
    if not keep.all():
        cells = cells[keep]
        points = points.subset(keep)
    # the covariate block is built once, at the kept size, and filled a
    # slice of rows at a time: a whole gathered column would be held beside it
    block = np.empty((len(points), points.p + len(layers)))
    block[:, :points.p] = points.covariates
    for start in range(0, len(points), 1 << 16):
        rows = slice(start, start + (1 << 16))
        for j, layer in enumerate(layers):
            block[rows, points.p + j] = np.take(layer.values, cells[rows])
    return PointTable(points.lon, points.lat, points.target, block)
