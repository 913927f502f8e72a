import numpy as np
import pytest

from finegrid import Grid, PointTable


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def small_grid():
    """2x2 moisture grid with one nodata cell, cellsize 0.25."""
    values = np.array([[0.1, 0.2], [0.3, -9999.0]])
    return Grid(ncols=2, nrows=2, xll=10.0, yll=40.0, cellsize=0.25, nodata=-9999.0,
                values=values)


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
