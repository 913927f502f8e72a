"""Command-line entry points: run a pipeline, render a grid, emit a scenario."""

from __future__ import annotations

import argparse
import logging
import sys

from .analysis import format_metrics
from .errors import EngineError
from .grid import read_ascii_grid
from .pipeline import load_config, run_pipeline
from .render import PALETTES, render_heatmap
from .synth import make_scenario


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        rows, _, cols = text.partition("x")
        return int(rows), int(cols)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engine",
        description="Downscale and gap-fill a coarse observation grid onto a fine grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a pipeline described by a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON run configuration")
    run.add_argument("--verbose", action="store_true",
                     help="stream the library's INFO log lines to stderr")

    render = sub.add_parser("render", help="render a grid file as a PPM heatmap")
    render.add_argument("--in", dest="grid", required=True, help="input ASCII grid")
    render.add_argument("--palette", choices=PALETTES, default="sequential")
    render.add_argument("--out", required=True, help="output .ppm path")

    synth = sub.add_parser("synth", help="generate a synthetic scenario on disk")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--fine-shape", type=_parse_shape, default=(128, 128),
                       metavar="ROWSxCOLS")
    synth.add_argument("--coarse-factor", type=int, default=8)
    synth.add_argument("--covariates", type=int, default=4)
    synth.add_argument("--noise", type=float, default=0.0)
    synth.add_argument("--gap", type=float, default=0.0)
    return parser


def _run(config_path: str, verbose: bool):
    if not verbose:
        return run_pipeline(load_config(config_path))
    logger = logging.getLogger("finegrid")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return run_pipeline(load_config(config_path))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            result = _run(args.config, args.verbose)
            print(format_metrics(result.report))
            print(f"outputs written to {result.output_dir}")
        elif args.command == "render":
            render_heatmap(read_ascii_grid(args.grid), args.palette, args.out)
            print(f"rendered {args.out}")
        else:
            scenario = make_scenario(
                seed=args.seed,
                fine_shape=args.fine_shape,
                coarse_factor=args.coarse_factor,
                n_covariates=args.covariates,
                noise_stdev=args.noise,
                gap_fraction=args.gap,
            )
            scenario.dump(args.out)
            print(f"scenario written to {args.out}")
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
