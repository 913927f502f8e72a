import json
import math

import numpy as np
import pytest

from finegrid import Grid, PointTable, neighbor_search


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def small_grid():
    """2x2 moisture grid with one nodata cell, cellsize 0.25."""
    values = np.array([[0.1, 0.2], [0.3, -9999.0]])
    return Grid(ncols=2, nrows=2, xll=10.0, yll=40.0, cellsize=0.25, nodata=-9999.0,
                values=values)


def cell_index_ref(grid, lon, lat):
    """Cell of one point, or None outside the grid extent: the scalar oracle
    of Grid.cell_numbers' half-open edge rule."""
    col = math.floor((lon - grid.xll) / grid.cellsize)
    row_from_bottom = math.floor((lat - grid.yll) / grid.cellsize)
    if col < 0 or col >= grid.ncols or row_from_bottom < 0 or row_from_bottom >= grid.nrows:
        return None
    return grid.nrows - 1 - row_from_bottom, col


def random_grid(rng, max_side=12):
    """Random valid grid with random header and a sprinkle of nodata."""
    nrows = int(rng.integers(1, max_side))
    ncols = int(rng.integers(1, max_side))
    values = rng.normal(size=(nrows, ncols)) * 10.0 ** rng.integers(-3, 4)
    nodata = -9999.0
    mask = rng.random((nrows, ncols)) < 0.2
    values = np.where(mask, nodata, values)
    return Grid(
        ncols=ncols,
        nrows=nrows,
        xll=float(rng.uniform(-180, 180)),
        yll=float(rng.uniform(-90, 80)),
        cellsize=float(rng.uniform(1e-3, 2.0)),
        nodata=nodata,
        values=values,
    )


def random_table(rng, n, p):
    return PointTable(
        lon=rng.uniform(-10, 10, n),
        lat=rng.uniform(-10, 10, n),
        target=rng.uniform(0, 1, n),
        covariates=rng.normal(size=(n, p)),
    )


def search_tables(train_f, query_f, k):
    """neighbor_search's whole (indices, distances) tables, each (nq, k):
    collected through a reducer that stacks the indices, as float64, beside
    the distances. Indices below 2**53 convert exactly, so both tables keep
    their bits."""
    both = neighbor_search(train_f, query_f, k,
                           lambda idx, dist: np.hstack([idx.astype(np.float64), dist]))
    return both[:, :k].astype(np.int64), both[:, k:]


def logged_facts(messages, out_dir):
    """Check a run's INFO lines against its outputs: one ``agreement:`` line
    quoting metrics.txt, and otherwise one ``key: json`` line per fact of
    manifest.json's derived block, each key once with the manifest's value.
    Values compare as re-encoded JSON text, so a NaN equals itself and an
    int-keyed dict sorts as the manifest's string keys do. Returns the keys
    in logged order."""
    metrics = (out_dir / "metrics.txt").read_text().strip()
    derived = json.loads((out_dir / "manifest.json").read_text())["derived"]
    facts = [m for m in messages if m != f"agreement: {metrics}"]
    assert len(facts) == len(messages) - 1
    logged = {}
    for line in facts:
        key, sep, text = line.partition(": ")
        assert sep and key not in logged, line
        logged[key] = json.dumps(json.loads(text), sort_keys=True)
    assert logged == {key: json.dumps(value, sort_keys=True) for key, value in derived.items()}
    return list(logged)
