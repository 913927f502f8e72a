import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finegrid import (
    Grid,
    ParseError,
    PointTable,
    UsageError,
    grid_to_points,
    monthly_mean,
    read_ascii_grid,
    sample_covariates,
    write_ascii_grid,
)
from finegrid.grid import grid_centroids

from conftest import random_grid

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


# reference: the per-line reader and per-value writer, token by token in Python


def _read_ascii_grid_ref(path) -> Grid:
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
            header[key] = int(parts[1]) if key in ("ncols", "nrows") else float(parts[1])
        except ValueError as exc:
            raise ParseError(f"non-numeric header value for '{key}'", path=path, line=i + 1) from exc

    ncols, nrows = header["ncols"], header["nrows"]
    if ncols < 1 or nrows < 1:
        raise ParseError("ncols and nrows must be positive", path=path, line=1)

    rows = []
    for i, line in enumerate(lines[len(_HEADER_KEYS):], start=len(_HEADER_KEYS) + 1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != ncols:
            raise ParseError(
                f"data row has {len(tokens)} values, expected {ncols}", path=path, line=i
            )
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise ParseError("non-numeric data token", path=path, line=i) from exc
    if len(rows) != nrows:
        raise ParseError(f"found {len(rows)} data rows, expected {nrows}", path=path)

    return Grid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header["nodata_value"],
        values=np.array(rows),
    )


def _write_ascii_grid_ref(grid: Grid, path) -> None:
    path = Path(path)
    out = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {grid.xll!r}",
        f"yllcorner {grid.yll!r}",
        f"cellsize {grid.cellsize!r}",
        f"NODATA_value {grid.nodata!r}",
    ]
    for row in grid.values:
        out.append(" ".join(repr(float(v)) for v in row))
    path.write_text("\n".join(out) + "\n")


def _outcome(reader, path):
    """What a reader makes of a file: the grid bit for bit, or the error raised."""
    try:
        g = reader(path)
    except (ParseError, UsageError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    header = (g.ncols, g.nrows, g.xll, g.yll, g.cellsize, g.nodata)
    return header, g.values.shape, g.values.view(np.int64).tolist()


# doubles at the edges of the format: signed zero, subnormals, the largest
# magnitudes, and the nodata sentinel
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  1e308, -1e308, 1.7976931348623157e308, -9999.0]

HEADER_3x2 = ("ncols 3\nnrows 2\nxllcorner 10.0\nyllcorner 40.0\ncellsize 0.25\n"
              "NODATA_value -9999.0\n")


class TestGridBasics:
    def test_validation(self):
        with pytest.raises(UsageError):
            Grid(ncols=0, nrows=2, xll=0, yll=0, cellsize=1, nodata=-9999,
                 values=np.zeros((2, 0)))
        with pytest.raises(UsageError):
            Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=0, nodata=-9999,
                 values=np.zeros((2, 2)))
        with pytest.raises(UsageError):
            Grid(ncols=3, nrows=2, xll=0, yll=0, cellsize=1, nodata=-9999,
                 values=np.zeros((2, 2)))

    def test_centroid_formula(self, small_grid):
        # cell (0,0) is the northwest cell
        assert small_grid.centroid(0, 0) == (10.125, 40.375)
        assert small_grid.centroid(1, 1) == (10.375, 40.125)

    def test_cell_index_inverse_of_centroid(self, rng):
        for _ in range(50):
            g = random_grid(rng)
            r = int(rng.integers(0, g.nrows))
            c = int(rng.integers(0, g.ncols))
            lon, lat = g.centroid(r, c)
            assert g.cell_index(lon, lat) == (r, c)

    def test_cell_index_lower_left_corner_is_inside(self, small_grid):
        # the half-open convention assigns a cell its own lower-left corner
        assert small_grid.cell_index(10.0, 40.25) == (0, 0)
        assert small_grid.cell_index(10.25, 40.0) == (1, 1)

    def test_cell_index_outside(self, small_grid):
        assert small_grid.cell_index(9.99, 40.1) is None
        assert small_grid.cell_index(10.1, 39.99) is None
        # right/top edges belong to the next cell, so the far edge is outside
        assert small_grid.cell_index(10.5, 40.1) is None
        assert small_grid.cell_index(10.1, 40.5) is None

    def test_cell_index_arrays_matches_scalar(self, rng):
        g = random_grid(rng)
        lons = rng.uniform(g.xll - g.cellsize, g.xll + (g.ncols + 1) * g.cellsize, 200)
        lats = rng.uniform(g.yll - g.cellsize, g.yll + (g.nrows + 1) * g.cellsize, 200)
        rows, cols, inside = g.cell_index_arrays(lons, lats)
        for i in range(200):
            got = g.cell_index(lons[i], lats[i])
            if got is None:
                assert not inside[i]
            else:
                assert inside[i] and (rows[i], cols[i]) == got

    def test_data_mask(self, small_grid):
        assert small_grid.data_mask.sum() == 3


class TestAsciiIO:
    def test_read_known_file(self, tmp_path):
        text = (
            "ncols 2\nnrows 2\nxllcorner 10.0\nyllcorner 40.0\ncellsize 0.25\n"
            "NODATA_value -9999\n0.1 0.2\n0.3 0.4\n"
        )
        path = tmp_path / "g.asc"
        path.write_text(text)
        g = read_ascii_grid(path)
        assert g.centroid(0, 0) == (10.125, 40.375)
        assert g.values[1, 1] == 0.4

    def test_case_insensitive_header(self, tmp_path):
        text = (
            "NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "nodata_VALUE -1\n0.5\n"
        )
        path = tmp_path / "g.asc"
        path.write_text(text)
        assert read_ascii_grid(path).values[0, 0] == 0.5

    def test_nodata_cell_preserved(self, tmp_path, small_grid):
        path = tmp_path / "g.asc"
        write_ascii_grid(small_grid, path)
        g = read_ascii_grid(path)
        assert g.values[1, 1] == -9999.0
        assert not g.data_mask[1, 1]

    def test_row_length_mismatch(self, tmp_path):
        text = (
            "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "NODATA_value -1\n1.0 2.0\n"
        )
        path = tmp_path / "bad.asc"
        path.write_text(text)
        with pytest.raises(ParseError, match="7"):
            read_ascii_grid(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("ncols 2\nnrows oops\n")
        with pytest.raises(ParseError, match="2"):
            read_ascii_grid(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(
            "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -1\nx\n"
        )
        with pytest.raises(ParseError, match="non-numeric"):
            read_ascii_grid(path)

    def test_round_trip_random_grids(self, rng, tmp_path):
        for i in range(25):
            g = random_grid(rng)
            path = tmp_path / f"g{i}.asc"
            write_ascii_grid(g, path)
            back = read_ascii_grid(path)
            assert back == g

    def test_round_trip_all_nodata(self, tmp_path):
        g = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, nodata=-9999.0,
                 values=np.full((2, 2), -9999.0))
        path = tmp_path / "nd.asc"
        write_ascii_grid(g, path)
        assert read_ascii_grid(path) == g

    def test_one_by_one_body(self, tmp_path):
        g = Grid(ncols=1, nrows=1, xll=0, yll=0, cellsize=1, nodata=-9999.0,
                 values=np.array([[0.5]]))
        path = tmp_path / "one.asc"
        write_ascii_grid(g, path)
        assert path.read_text().splitlines()[-1] == "0.5"
        assert read_ascii_grid(path) == g

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e12, max_value=1e12),
                    min_size=1, max_size=12))
    def test_round_trip_is_identity_on_values(self, values):
        import tempfile
        from pathlib import Path

        g = Grid(ncols=len(values), nrows=1, xll=0.0, yll=0.0, cellsize=0.5,
                 nodata=-9999.0, values=np.array([values]))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "h.asc"
            write_ascii_grid(g, path)
            assert np.array_equal(read_ascii_grid(path).values, g.values)


class TestAsciiOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference_on_random_grids(self, tmp_path_factory, data):
        nrows = data.draw(st.integers(1, 6), label="nrows")
        ncols = data.draw(st.integers(1, 6), label="ncols")
        cell = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
                      min_value=-1e-300, max_value=1e-300),
            st.sampled_from(SPECIAL_VALUES),
        )
        values = data.draw(st.lists(cell, min_size=nrows * ncols, max_size=nrows * ncols))
        g = Grid(ncols=ncols, nrows=nrows, xll=data.draw(st.floats(-180, 180)),
                 yll=data.draw(st.floats(-90, 90)), cellsize=data.draw(st.floats(1e-6, 10)),
                 nodata=-9999.0, values=np.array(values).reshape(nrows, ncols))
        d = tmp_path_factory.mktemp("oracle")
        write_ascii_grid(g, d / "new.asc")
        _write_ascii_grid_ref(g, d / "ref.asc")
        assert (d / "new.asc").read_bytes() == (d / "ref.asc").read_bytes()
        got = _outcome(read_ascii_grid, d / "new.asc")
        assert got == _outcome(_read_ascii_grid_ref, d / "new.asc")
        assert got[2] == g.values.view(np.int64).tolist()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 4)])
    def test_matches_reference_on_special_values(self, tmp_path, rng, shape):
        values = rng.choice(SPECIAL_VALUES + [0.1, -2.5e-7, 3e21], size=shape)
        g = Grid(ncols=shape[1], nrows=shape[0], xll=-0.0, yll=5e-324, cellsize=1e308,
                 nodata=-9999.0, values=values)
        write_ascii_grid(g, tmp_path / "new.asc")
        _write_ascii_grid_ref(g, tmp_path / "ref.asc")
        assert (tmp_path / "new.asc").read_text() == (tmp_path / "ref.asc").read_text()
        got = _outcome(read_ascii_grid, tmp_path / "new.asc")
        assert got == _outcome(_read_ascii_grid_ref, tmp_path / "new.asc")
        assert got[2] == values.view(np.int64).tolist()

    @pytest.mark.parametrize("text", [
        pytest.param(HEADER_3x2 + "1 2 3 4\n5 6 7\n", id="ragged"),
        pytest.param(HEADER_3x2 + "1 2 3\n4 5\n", id="short-row"),
        pytest.param(HEADER_3x2 + "1 2 3\n4 5 6\n7 8 9\n", id="extra-row"),
        pytest.param(HEADER_3x2 + "1 2 3\n", id="missing-row"),
        pytest.param(HEADER_3x2 + "1 2 3\n\n4 x 6\n", id="non-numeric-line-9"),
        pytest.param(HEADER_3x2 + "1 2 3\n4 5 6\n7 8\n", id="short-extra-row"),
        pytest.param(HEADER_3x2 + "1 2 3\n4 5 -\n", id="bare-sign"),
        pytest.param(HEADER_3x2 + "1 2 3\n4 5 0x10\n", id="hex"),
        pytest.param(HEADER_3x2 + "1 2 3 #x\n4 5 6\n", id="comment-marker"),
        pytest.param(HEADER_3x2 + "1 2 3\n4 5 1e999\n", id="overflow-to-inf"),
        pytest.param(HEADER_3x2 + "1 nan 3\n4 5 6\n", id="nan"),
        pytest.param(HEADER_3x2, id="header-only"),
        pytest.param(HEADER_3x2 + "\n  \n\t\n", id="empty-body"),
        pytest.param(HEADER_3x2.replace("nrows 2", "nrows two"), id="bad-header-value"),
        pytest.param(HEADER_3x2.replace("ncols 3", "ncols 0"), id="zero-columns"),
        pytest.param("ncols 3\nnrows 2\n", id="truncated-header"),
    ])
    def test_malformed_matches_reference(self, tmp_path, text):
        path = tmp_path / "bad.asc"
        path.write_bytes(text.encode())
        got = _outcome(read_ascii_grid, path)
        assert got == _outcome(_read_ascii_grid_ref, path)
        assert got[0] in (ParseError, UsageError)

    @pytest.mark.parametrize("body", [
        pytest.param("\n1 2 3\n\n\n4 5 6\n\n", id="blank-lines"),
        pytest.param("1 2 3\r\n4 5 6\r\n", id="crlf"),
        pytest.param("1\t2\t3\n\t4\t5\t6\n", id="tabs"),
        pytest.param("1 2 3   \n  4 5 6 \n", id="trailing-spaces"),
        pytest.param("1 2 3\x0c4 5 6\n", id="form-feed-between-rows"),
        pytest.param("1 2\x0c3\n4 5 6\n", id="form-feed-inside-row"),
        pytest.param("1\xa02 3\n4 5\u30006\n", id="unicode-spaces"),
        pytest.param("1 2 3\n4 5 6", id="no-final-newline"),
        pytest.param("+1 -2. .3e1\n4E-2 -0 00005\n", id="number-spellings"),
    ])
    def test_layout_matches_reference(self, tmp_path, body):
        text = HEADER_3x2 + body
        if "\r\n" in body:
            text = text.replace("\n", "\r\n").replace("\r\r", "\r")
        path = tmp_path / "layout.asc"
        path.write_bytes(text.encode())
        assert _outcome(read_ascii_grid, path) == _outcome(_read_ascii_grid_ref, path)

    @pytest.mark.parametrize("token, as_float", [("1_0", 10.0), ("\u0661", 1.0)])
    def test_float_only_tokens_rejected(self, tmp_path, token, as_float):
        # Python's float() takes digit-group underscores and non-ASCII digits;
        # ESRI ASCII has neither, and the reader refuses them by line
        path = tmp_path / "narrow.asc"
        path.write_bytes((HEADER_3x2 + f"1 2 3\n\n4 {token} 6\n").encode())
        with pytest.raises(ParseError, match="non-numeric data token") as info:
            read_ascii_grid(path)
        assert info.value.line == 9
        assert _read_ascii_grid_ref(path).values[1, 1] == as_float

    @pytest.mark.parametrize("plain, spelled, line", [
        ("ncols 3", "ncols 0_3", 1),
        ("nrows 2", "nrows ٢", 2),
        ("cellsize 0.25", "cellsize 0.2_5", 5),
        ("NODATA_value -9999.0", "NODATA_value -٩999.0", 6),
    ])
    def test_float_only_header_values_rejected(self, tmp_path, plain, spelled, line):
        # the header refuses the spellings the body refuses, by line
        body = "1 2 3\n4 5 6\n"
        path = tmp_path / "narrow.asc"
        path.write_bytes((HEADER_3x2.replace(plain, spelled) + body).encode())
        with pytest.raises(ParseError, match="non-numeric header value") as info:
            read_ascii_grid(path)
        assert info.value.line == line
        (tmp_path / "plain.asc").write_text(HEADER_3x2 + body)
        assert _read_ascii_grid_ref(path) == read_ascii_grid(tmp_path / "plain.asc")

    def test_empty_body_raises_without_warning(self, tmp_path):
        path = tmp_path / "empty.asc"
        path.write_text(HEADER_3x2 + "\n \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="found 0 data rows, expected 2"):
                read_ascii_grid(path)


class TestMonthlyMean:
    def make(self, *vals):
        return Grid(ncols=1, nrows=1, xll=0, yll=0, cellsize=1, nodata=-9999.0,
                    values=np.array([[vals[0]]]))

    def test_mean_of_two_days(self):
        out = monthly_mean([self.make(0.2), self.make(0.4)])
        assert out.values[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_nodata_skipped(self):
        out = monthly_mean([self.make(0.2), self.make(-9999.0)])
        assert out.values[0, 0] == 0.2

    def test_all_nodata_stays_nodata(self):
        out = monthly_mean([self.make(-9999.0), self.make(-9999.0)])
        assert out.values[0, 0] == -9999.0

    def test_min_count(self):
        out = monthly_mean([self.make(0.2), self.make(-9999.0)], min_count=2)
        assert out.values[0, 0] == -9999.0

    def test_permutation_invariant(self, rng):
        grids = []
        for _ in range(5):
            v = np.where(rng.random((3, 4)) < 0.3, -9999.0, rng.random((3, 4)))
            grids.append(Grid(ncols=4, nrows=3, xll=0, yll=0, cellsize=1,
                              nodata=-9999.0, values=v))
        a = monthly_mean(grids)
        order = rng.permutation(5)
        b = monthly_mean([grids[i] for i in order])
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-15)

    def test_errors(self, small_grid):
        with pytest.raises(UsageError):
            monthly_mean([])
        other = Grid(ncols=1, nrows=1, xll=0, yll=0, cellsize=1, nodata=-9999.0,
                     values=np.array([[0.1]]))
        with pytest.raises(UsageError):
            monthly_mean([small_grid, other])


class TestGridToPoints:
    def test_counts_and_coordinates(self, small_grid):
        pts = grid_to_points(small_grid)
        assert len(pts) == 3
        assert pts.p == 0
        # records carry the centroid of their source cell
        found = {(pts.lon[i], pts.lat[i]): pts.target[i] for i in range(3)}
        assert found[small_grid.centroid(0, 0)] == 0.1
        assert found[small_grid.centroid(1, 0)] == 0.3

    def test_all_nodata(self):
        g = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, nodata=-9999.0,
                 values=np.full((1, 2), -9999.0))
        assert len(grid_to_points(g)) == 0

    def test_count_equals_data_cells(self, rng):
        for _ in range(20):
            g = random_grid(rng)
            assert len(grid_to_points(g)) == g.data_mask.sum()


class TestSampleCovariates:
    def layer(self, values, nodata=-9999.0):
        values = np.asarray(values, dtype=float)
        return Grid(ncols=values.shape[1], nrows=values.shape[0], xll=0, yll=0,
                    cellsize=1.0, nodata=nodata, values=values)

    def test_appends_value_at_centroid(self):
        layer = self.layer([[7.5]])
        pts = PointTable([0.5], [0.5], [0.2], np.zeros((1, 0)))
        out = sample_covariates(pts, [layer], ["elev"])
        assert out.p == 1
        assert out.covariates[0, 0] == 7.5

    def test_outside_point_dropped(self):
        layer = self.layer([[7.5]])
        pts = PointTable([0.5, 3.0], [0.5, 0.5], [0.2, 0.3], np.zeros((2, 0)))
        out = sample_covariates(pts, [layer], ["elev"])
        assert len(pts) - len(out) == 1
        assert out.target[0] == 0.2

    def test_nodata_hit_dropped(self):
        layer = self.layer([[-9999.0, 1.0]])
        pts = PointTable([0.5, 1.5], [0.5, 0.5], [0.1, 0.2], np.zeros((2, 0)))
        out = sample_covariates(pts, [layer], ["a"])
        assert len(out) == 1
        assert out.covariates[0, 0] == 1.0

    def test_fifteen_layers_grow_p_by_fifteen(self, rng):
        layers = [self.layer(rng.random((4, 4))) for _ in range(15)]
        pts = PointTable([1.5], [2.5], [0.1], np.zeros((1, 0)))
        out = sample_covariates(pts, layers, [f"t{i}" for i in range(15)])
        assert out.p == 15

    def test_resampling_is_deterministic(self, rng):
        layers = [self.layer(rng.random((5, 5))) for _ in range(3)]
        pts = PointTable(rng.uniform(0, 5, 30), rng.uniform(0, 5, 30),
                         rng.random(30), np.zeros((30, 0)))
        a = sample_covariates(pts, layers, ["a", "b", "c"])
        b = sample_covariates(pts, layers, ["a", "b", "c"])
        assert a == b

    def test_mismatched_headers_rejected(self):
        a = self.layer([[1.0]])
        b = Grid(ncols=1, nrows=1, xll=5, yll=0, cellsize=1, nodata=-9999.0,
                 values=np.array([[2.0]]))
        pts = PointTable([0.5], [0.5], [0.1], np.zeros((1, 0)))
        with pytest.raises(UsageError):
            sample_covariates(pts, [a, b], ["a", "b"])


class TestPointTable:
    def test_validation(self):
        with pytest.raises(UsageError):
            PointTable([0.0], [0.0, 1.0], [0.1], np.zeros((1, 0)))
        with pytest.raises(UsageError):
            PointTable([np.inf], [0.0], [0.1], np.zeros((1, 0)))

    @pytest.mark.parametrize("covs", [np.zeros(1), np.zeros((1, 1, 1)), 0.5])
    def test_covariates_must_be_two_dimensional(self, covs):
        with pytest.raises(UsageError, match=r"\(n, p\) array"):
            PointTable([0.0], [1.0], [0.1], covs)

    def test_zero_covariates_allowed(self):
        t = PointTable([0.0], [1.0], [np.nan], np.zeros((1, 0)))
        assert t.p == 0

    def test_subset_preserves_order(self, rng):
        from conftest import random_table
        t = random_table(rng, 20, 3)
        keep = rng.random(20) < 0.5
        s = t.subset(keep)
        np.testing.assert_array_equal(s.lon, t.lon[keep])

    def test_grid_centroids_covers_every_cell(self, small_grid):
        pts = grid_centroids(small_grid)
        assert len(pts) == 4
        assert (pts.lon[0], pts.lat[0]) == small_grid.centroid(0, 0)
