"""Lossless heatmap rendering of grids to binary portable pixmaps (P6).

One image pixel per cell. The sequential palette runs warm (low values) to
cool (high values); the diverging palette is symmetric around zero for
residual maps. Nodata cells render as a reserved neutral grey, and the value
range behind the color scale goes to a sidecar text file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParseError, UsageError
from .grid import Grid

PALETTES = ("sequential", "diverging")

NODATA_COLOR = (128, 128, 128)

# warm -> pale -> cool, low to high
_SEQUENTIAL_STOPS = ((178, 34, 52), (247, 238, 170), (44, 84, 172))

# cool -> white -> warm, negative to positive
_DIVERGING_STOPS = ((33, 102, 172), (247, 247, 247), (178, 24, 43))


def _interpolate(stops, t: np.ndarray) -> np.ndarray:
    """Piecewise-linear color ramp through evenly spaced stops; t in [0, 1]
    -> (n, 3) uint8, and t outside [0, 1] takes the end colors. Each channel
    is rounded in place and written straight into the pixels."""
    at = np.linspace(0.0, 1.0, len(stops))
    pixels = np.empty((len(t), 3), dtype=np.uint8)
    for j, channel in enumerate(np.transpose(stops)):
        level = np.interp(t, at, channel)
        pixels[:, j] = np.rint(level, out=level)
    return pixels


def render_heatmap(grid: Grid, palette: str, path) -> None:
    """Write a P6 pixmap of the grid plus a ``<path>.legend.txt`` sidecar.

    sequential: values mapped linearly over [min, max] of the data cells;
    diverging: mapped over [-m, m] with m = max |value|, so zero sits on the
    neutral midpoint. A constant grid renders as the midpoint color.
    """
    if palette not in PALETTES:
        raise UsageError(f"palette must be one of {PALETTES}")
    mask = grid.data_mask
    flat_mask = mask.ravel()
    values = grid.values.ravel()

    if palette == "sequential":
        if flat_mask.any():
            lo = float(values[flat_mask].min())
            hi = float(values[flat_mask].max())
        else:
            lo = hi = 0.0
        stops = _SEQUENTIAL_STOPS
    else:
        m = float(np.abs(values[flat_mask]).max()) if flat_mask.any() else 0.0
        lo, hi = -m, m
        stops = _DIVERGING_STOPS

    if hi > lo:
        t = np.subtract(values, lo)
        t /= hi - lo
    else:
        t = np.full(values.shape, 0.5)
    pixels = _interpolate(stops, t)
    pixels[~flat_mask] = NODATA_COLOR

    path = Path(path)
    try:
        with path.open("wb") as out:
            out.write(f"P6\n{grid.ncols} {grid.nrows}\n255\n".encode("ascii"))
            out.write(pixels.data)
    except OSError as exc:
        raise UsageError(f"cannot write image {path}: {exc}") from exc
    legend = (
        f"palette={palette}\nmin={lo!r}\nmax={hi!r}\n"
        f"nodata_color={NODATA_COLOR[0]},{NODATA_COLOR[1]},{NODATA_COLOR[2]}\n"
    )
    Path(str(path) + ".legend.txt").write_text(legend)


def read_ppm(path):
    """Read back a P6 pixmap as ((width, height), (h, w, 3) uint8 array).

    Reads the layout :func:`render_heatmap` writes: magic, size and maxval
    255 on one line each, then the pixels. Anything else raises
    :class:`ParseError` naming the file.
    """
    path = Path(path)
    try:
        parts = path.read_bytes().split(b"\n", 3)
    except OSError as exc:
        raise ParseError(f"cannot read pixmap: {exc}", path=path) from exc
    if len(parts) < 4 or parts[0] != b"P6":
        raise ParseError("not a binary PPM (P6) with a three-line header", path=path)
    size = parts[1].split()
    if len(size) != 2 or not all(v.isdigit() for v in size):
        raise ParseError("expected a 'width height' line", path=path, line=2)
    if parts[2] != b"255":
        raise ParseError("maxval must be 255", path=path, line=3)
    width, height = int(size[0]), int(size[1])
    if len(parts[3]) != width * height * 3:
        raise ParseError(f"pixel data holds {len(parts[3])} bytes, not {width * height * 3}",
                         path=path)
    return (width, height), np.frombuffer(parts[3], dtype=np.uint8).reshape(height, width, 3)
