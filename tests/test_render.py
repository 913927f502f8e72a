import json
import logging

import numpy as np
import pytest

from finegrid import (
    Grid,
    ParseError,
    UsageError,
    make_scenario,
    read_ascii_grid,
    read_ppm,
    render_heatmap,
    write_ascii_grid,
)
from finegrid.cli import main
from finegrid.render import NODATA_COLOR

NODATA = -9999.0


def grid_of(values):
    values = np.asarray(values, dtype=float)
    return Grid(ncols=values.shape[1], nrows=values.shape[0], xll=0.0, yll=0.0,
                cellsize=1.0, nodata=NODATA, values=values)


class TestRenderHeatmap:
    def test_dimensions_match_grid(self, rng, tmp_path):
        grid = grid_of(rng.random((5, 9)))
        path = tmp_path / "img.ppm"
        render_heatmap(grid, "sequential", path)
        (width, height), pixels = read_ppm(path)
        assert (width, height) == (9, 5)
        assert pixels.shape == (5, 9, 3)

    def test_constant_grid_single_color(self, tmp_path):
        path = tmp_path / "c.ppm"
        render_heatmap(grid_of(np.full((4, 4), 0.2)), "sequential", path)
        _, pixels = read_ppm(path)
        flat = pixels.reshape(-1, 3)
        assert (flat == flat[0]).all()
        # midpoint of the ramp, not an endpoint
        assert not (flat[0] == NODATA_COLOR).all()

    def test_nodata_renders_grey(self, rng, tmp_path):
        values = rng.random((3, 3))
        values[1, 1] = NODATA
        path = tmp_path / "g.ppm"
        render_heatmap(grid_of(values), "sequential", path)
        _, pixels = read_ppm(path)
        assert tuple(pixels[1, 1]) == NODATA_COLOR

    def test_sequential_endpoints(self, tmp_path):
        # min maps to the warm end, max to the cool end
        path = tmp_path / "s.ppm"
        render_heatmap(grid_of([[0.0, 1.0]]), "sequential", path)
        _, pixels = read_ppm(path)
        low, high = pixels[0, 0], pixels[0, 1]
        assert low[0] > low[2]    # red-dominant
        assert high[2] > high[0]  # blue-dominant

    def test_diverging_symmetric_span(self, tmp_path):
        # span is [-m, m]: equal magnitudes map to mirrored ramp positions
        path = tmp_path / "d.ppm"
        render_heatmap(grid_of([[-0.2, 0.0, 0.4]]), "diverging", path)
        _, pixels = read_ppm(path)
        legend = dict(
            line.split("=", 1)
            for line in (tmp_path / "d.ppm.legend.txt").read_text().splitlines()
        )
        assert float(legend["min"]) == -0.4
        assert float(legend["max"]) == 0.4
        # zero sits on the neutral midpoint
        neutral = pixels[0, 1]
        assert abs(int(neutral[0]) - int(neutral[2])) <= 1

    def test_legend_sidecar(self, rng, tmp_path):
        grid = grid_of(rng.uniform(0.1, 0.6, (4, 4)))
        path = tmp_path / "img.ppm"
        render_heatmap(grid, "sequential", path)
        legend = dict(
            line.split("=", 1)
            for line in (tmp_path / "img.ppm.legend.txt").read_text().splitlines()
        )
        assert legend["palette"] == "sequential"
        assert float(legend["min"]) == grid.values.min()
        assert float(legend["max"]) == grid.values.max()
        assert legend["nodata_color"] == "128,128,128"

    def test_unknown_palette(self, tmp_path):
        with pytest.raises(UsageError):
            render_heatmap(grid_of([[0.1]]), "plasma", tmp_path / "x.ppm")

    @pytest.mark.parametrize("data", [
        b"P3\n2 1\n255\n" + bytes(6),
        b"P6\nx y\n255\n" + bytes(6),
        b"P6\n2\n255\n" + bytes(6),
        b"P6\n2 1\n65535\n" + bytes(12),
        b"P6\n2 1\n255\n" + bytes(5),
        b"P6\n2 1\n255\n" + bytes(7),
        b"P6\n2 1\n",
    ], ids=["magic", "size-not-numbers", "size-missing-field", "maxval", "truncated-pixels",
            "trailing-bytes", "no-pixel-line"])
    def test_read_ppm_malformed_rejected(self, tmp_path, data):
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="bad.ppm"):
            read_ppm(path)

    def test_all_nodata_grid(self, tmp_path):
        path = tmp_path / "n.ppm"
        render_heatmap(grid_of([[NODATA, NODATA]]), "sequential", path)
        _, pixels = read_ppm(path)
        assert (pixels.reshape(-1, 3) == NODATA_COLOR).all()


class TestCli:
    def test_synth_render_run_round_trip(self, tmp_path, capsys):
        data_dir = tmp_path / "scenario"
        assert main(["synth", "--seed", "3", "--out", str(data_dir),
                     "--fine-shape", "32x32", "--coarse-factor", "4",
                     "--gap", "0.1"]) == 0
        assert (data_dir / "observed.asc").exists()

        img = tmp_path / "obs.ppm"
        assert main(["render", "--in", str(data_dir / "observed.asc"),
                     "--out", str(img)]) == 0
        (width, height), _ = read_ppm(img)
        assert (width, height) == (8, 8)

        out_dir = tmp_path / "run_out"
        config = {
            "observed_grid": str(data_dir / "observed.asc"),
            "output_dir": str(out_dir),
            "method": "knn",
            "k": 3,
            "fine_factor": 2,
            "render": True,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        assert "r2=" in captured.out
        for name in ("prediction.ppm", "residual.ppm"):
            assert (out_dir / name).exists()

    def test_run_verbose_streams_log_to_stderr(self, tmp_path, capsys):
        data_dir = tmp_path / "scenario"
        assert main(["synth", "--seed", "3", "--out", str(data_dir),
                     "--fine-shape", "32x32", "--coarse-factor", "4"]) == 0
        out_dir = tmp_path / "run_out"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "observed_grid": str(data_dir / "observed.asc"),
            "output_dir": str(out_dir),
            "method": "knn",
            "k": 3,
            "fine_factor": 2,
        }))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        handlers = list(logging.getLogger("finegrid").handlers)
        assert main(["run", "--config", str(cfg_path), "--verbose"]) == 0
        verbose = capsys.readouterr()
        metrics = (out_dir / "metrics.txt").read_text().strip()
        assert verbose.err == f"agreement: {metrics}\n"
        assert verbose.out == quiet.out
        # the handler goes away with the run
        assert logging.getLogger("finegrid").handlers == handlers

    def test_run_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_bad_stage_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({
            "observed_grid": str(tmp_path / "missing.asc"),
            "output_dir": str(tmp_path / "out"),
            "method": "knn",
        }))
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "load-observed" in err

    def test_render_rejects_bad_palette(self, tmp_path):
        grid_path = tmp_path / "g.asc"
        write_ascii_grid(grid_of([[0.1, 0.2]]), grid_path)
        with pytest.raises(SystemExit):
            main(["render", "--in", str(grid_path), "--palette", "viridis",
                  "--out", str(tmp_path / "x.ppm")])

    def test_synth_deterministic_across_invocations(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--seed", "9", "--out", str(out),
                         "--fine-shape", "32x32", "--coarse-factor", "4"]) == 0
        assert (a / "observed.asc").read_text() == (b / "observed.asc").read_text()
        assert (a / "truth.asc").read_text() == (b / "truth.asc").read_text()

    @pytest.mark.parametrize("shape", ["0x8", "-8x8"])
    def test_synth_rejects_empty_or_negative_shape(self, tmp_path, capsys, shape):
        assert main(["synth", "--seed", "1", "--out", str(tmp_path / "s"),
                     f"--fine-shape={shape}", "--coarse-factor", "4"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_render_matches_library_call(self, tmp_path):
        scenario = make_scenario(seed=4, fine_shape=(32, 32), coarse_factor=4)
        grid_path = tmp_path / "obs.asc"
        write_ascii_grid(scenario.observed, grid_path)
        cli_img = tmp_path / "cli.ppm"
        lib_img = tmp_path / "lib.ppm"
        assert main(["render", "--in", str(grid_path), "--palette", "diverging",
                     "--out", str(cli_img)]) == 0
        render_heatmap(read_ascii_grid(grid_path), "diverging", lib_img)
        assert cli_img.read_bytes() == lib_img.read_bytes()
