"""Independent checks of a run's outputs, written against the documented
behaviour rather than against finegrid's code.

``knn_check`` recomputes a knn run from the input files with numpy: the
region clip (even-odd containment with the boundary inside, plus the
equirectangular buffer distance), the coordinate scaling and a brute-force
neighbour scan. Neighbours at the same distance as the k-th may be chosen
either way, so the check accepts any prediction between the smallest and
the largest value such a choice allows.

``report_check`` recomputes the coarse aggregation and the residual RMSE
from ``prediction.asc`` and ``observed.asc``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EARTH_RADIUS_KM = 6371.0088
TIE_RTOL = 1e-9  # squared distances this close to the k-th count as ties
VALUE_ATOL = 1e-9
CHUNK = 1024  # queries per distance block: 1024 x 1000 training cells is 8 MB


def read_grid(path: Path):
    """(header dict, values) of an ESRI ASCII grid."""
    with open(path) as handle:
        header = {}
        for _ in range(6):
            key, value = handle.readline().split()
            header[key.lower()] = float(value)
        values = np.loadtxt(handle, ndmin=2)
    return header, values


def centroids(header: dict, shape) -> tuple[np.ndarray, np.ndarray]:
    """Lon/lat of every cell centre, each (nrows, ncols)."""
    nrows, ncols = shape
    cs = header["cellsize"]
    lon = header["xllcorner"] + (np.arange(ncols) + 0.5) * cs
    lat = header["yllcorner"] + (nrows - np.arange(nrows) - 0.5) * cs
    return np.broadcast_to(lon, shape), np.broadcast_to(lat[:, None], shape)


def read_rings(path: Path) -> list[np.ndarray]:
    """Rings of the first polygon in a GeoJSON file, unclosed, each (n, 2)."""
    doc = json.loads(Path(path).read_text())
    if doc["type"] == "FeatureCollection":
        doc = doc["features"][0]
    geometry = doc.get("geometry", doc)
    rings = []
    for ring in geometry["coordinates"]:
        pts = np.asarray(ring, dtype=float)[:, :2]
        if len(pts) > 1 and np.array_equal(pts[0], pts[-1]):
            pts = pts[:-1]
        rings.append(pts)
    return rings


def _edges(ring: np.ndarray):
    return zip(ring, np.roll(ring, -1, axis=0))


def _ring_test(ring, lon, lat):
    """(on_boundary, inside by the even-odd rule) for every point."""
    on = np.zeros(lon.shape, dtype=bool)
    inside = np.zeros(lon.shape, dtype=bool)
    for (x1, y1), (x2, y2) in _edges(ring):
        cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
        on |= (
            (cross == 0.0)
            & (min(x1, x2) <= lon) & (lon <= max(x1, x2))
            & (min(y1, y2) <= lat) & (lat <= max(y1, y2))
        )
        spans = (y1 > lat) != (y2 > lat)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
        inside ^= spans & (lon < x_at)
    return on, inside


def contains(rings, lon, lat) -> np.ndarray:
    """Inside the ring by the even-odd rule, boundary points included. The
    scenarios' regions are single rectangles, so holes are not handled."""
    if len(rings) != 1:
        raise ValueError("the reference handles regions without holes only")
    on, inside = _ring_test(rings[0], lon, lat)
    return on | inside


def boundary_km(rings, lon, lat) -> np.ndarray:
    """Distance to the nearest boundary segment, each segment measured on
    the tangent plane at its midpoint latitude."""
    best = np.full(lon.shape, np.inf)
    ky = EARTH_RADIUS_KM * math.pi / 180.0
    for ring in rings:
        for (x1, y1), (x2, y2) in _edges(ring):
            kx = math.cos(math.radians((y1 + y2) / 2.0)) * ky
            px, py = (lon - x1) * kx, (lat - y1) * ky
            sx, sy = (x2 - x1) * kx, (y2 - y1) * ky
            seg2 = sx * sx + sy * sy
            t = 0.0 if seg2 == 0.0 else np.clip((px * sx + py * sy) / seg2, 0.0, 1.0)
            best = np.minimum(best, np.hypot(px - t * sx, py - t * sy))
    return best


def region_mask(path: Path, lon, lat, buffer_km: float) -> np.ndarray:
    rings = read_rings(path)
    keep = contains(rings, lon, lat)
    if buffer_km > 0:
        keep |= boundary_km(rings, lon, lat) <= buffer_km
    return keep


def _tie_bounds(d2, z, k, weighting):
    """Smallest and largest prediction over every valid choice of k nearest
    training points, for one block of queries."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    tol = TIE_RTOL * kth + 1e-300
    closer = d2 < kth - tol
    tied = ~closer & (d2 <= kth + tol)
    missing = k - closer.sum(axis=1)  # how many of the tied points are taken
    if weighting == "uniform":
        w = np.ones_like(d2)
        w_tied = np.ones(len(d2))
    else:
        w = 1.0 / np.maximum(np.sqrt(d2), 1e-12)
        w_tied = 1.0 / np.maximum(np.sqrt(kth[:, 0]), 1e-12)
    num = np.where(closer, w * z, 0.0).sum(axis=1)
    den = np.where(closer, w, 0.0).sum(axis=1) + missing * w_tied
    low = np.sort(np.where(tied, z, np.inf), axis=1)
    high = -np.sort(np.where(tied, -z, np.inf), axis=1)
    take = np.arange(d2.shape[1]) < missing[:, None]
    low_sum = np.where(take, low, 0.0).sum(axis=1)
    high_sum = np.where(take, high, 0.0).sum(axis=1)
    return (num + w_tied * low_sum) / den, (num + w_tied * high_sum) / den


def knn_check(work: Path, config: dict) -> dict:
    """Recompute a coords-only knn run; returns named booleans."""
    obs_h, obs = read_grid(work / config["observed_grid"])
    pred_h, pred = read_grid(work / config["output_dir"] / "prediction.asc")
    train_lon, train_lat = (a[obs != obs_h["nodata_value"]] for a in centroids(obs_h, obs.shape))
    train_z = obs[obs != obs_h["nodata_value"]]
    lon, lat = (a.ravel() for a in centroids(pred_h, pred.shape))
    predicted = np.ones(lon.shape, dtype=bool)
    if config.get("region_file"):
        buffer_km = float(config.get("buffer_km", 0.0))
        keep = region_mask(work / config["region_file"], train_lon, train_lat, buffer_km)
        train_lon, train_lat, train_z = train_lon[keep], train_lat[keep], train_z[keep]
        predicted &= region_mask(work / config["region_file"], lon, lat, buffer_km)
    if config.get("report_region_file"):
        predicted &= region_mask(work / config["report_region_file"], lon, lat, 0.0)

    got = pred.ravel()
    checks = {"reference_cells": bool(np.array_equal(got != pred_h["nodata_value"], predicted))}
    train = np.column_stack([train_lon, train_lat])
    mean, std = train.mean(axis=0), train.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    train = (train - mean) / std
    queries = (np.column_stack([lon[predicted], lat[predicted]]) - mean) / std
    got = got[predicted]
    ok = True
    for start in range(0, len(queries), CHUNK):
        q = queries[start:start + CHUNK]
        diff = q[:, None, :] - train[None, :, :]
        low, high = _tie_bounds(
            (diff * diff).sum(axis=2), train_z[None, :], config["k"], config["weighting"]
        )
        values = got[start:start + CHUNK]
        ok &= bool(np.all((values >= low - VALUE_ATOL) & (values <= high + VALUE_ATOL)))
    checks["reference_values"] = ok
    return checks


def report_check(work: Path, config: dict, reported_rmse: float) -> dict:
    """The coarse aggregation of ``prediction.asc`` must match
    ``aggregated.asc``, and its RMSE against the observed grid the reported
    one."""
    out = work / config["output_dir"]
    obs_h, obs = read_grid(work / config["observed_grid"])
    pred_h, pred = read_grid(out / "prediction.asc")
    agg_h, agg = read_grid(out / "aggregated.asc")
    f = config["fine_factor"]
    have = pred != pred_h["nodata_value"]
    blocks = (obs.shape[0], f, obs.shape[1], f)
    counts = have.reshape(blocks).sum(axis=(1, 3))
    sums = np.where(have, pred, 0.0).reshape(blocks).sum(axis=(1, 3))
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = np.where(counts > 0, sums / counts, agg_h["nodata_value"])
    agg_ok = bool(
        np.array_equal(counts > 0, agg != agg_h["nodata_value"])
        and np.allclose(agg, expected, rtol=1e-12, atol=1e-12)
    )
    paired = (counts > 0) & (obs != obs_h["nodata_value"])
    rmse = float(np.sqrt(np.mean((agg[paired] - obs[paired]) ** 2)))
    return {
        "aggregation_matches": agg_ok,
        "reported_rmse_matches": math.isclose(rmse, reported_rmse, rel_tol=1e-9),
    }
