"""Polygon region masks with an optional geographic buffer.

A region is an outer lon/lat ring plus optional hole rings. Membership uses
the even-odd ray-casting rule with boundary points counting as inside. The
buffer is a point predicate: a point passes when it is inside the polygon or
within ``buffer_km`` of the nearest boundary segment, each segment measured
on an equirectangular tangent plane at its midpoint latitude (Earth radius
6371.0088 km).

The predicates loop over ring edges and take whole arrays of points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, UsageError
from .grid import PointTable

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class Region:
    """Polygon in lon/lat degrees: first ring is the outer boundary, the rest holes.

    Rings are stored unclosed (first vertex not repeated at the end).
    """

    rings: tuple
    name: str = ""

    def __post_init__(self):
        if not self.rings:
            raise UsageError("region needs at least one ring")
        cleaned = []
        for ring in self.rings:
            try:
                pts = [(float(lon), float(lat)) for lon, lat in ring]
            except (TypeError, ValueError) as exc:
                raise UsageError("each ring must be a sequence of (lon, lat) numbers") from exc
            if not np.isfinite(pts).all():
                raise UsageError("ring vertices must be finite")
            if len(pts) > 1 and pts[0] == pts[-1]:
                pts = pts[:-1]
            if len(set(pts)) < 3:
                raise UsageError("each ring needs at least 3 distinct vertices")
            cleaned.append(tuple(pts))
        if _ring_area(cleaned[0]) <= 0:
            raise UsageError("outer ring must enclose positive area")
        object.__setattr__(self, "rings", tuple(cleaned))


def _edges(ring):
    """(x1, y1, x2, y2) for each edge of an unclosed ring, closing edge last."""
    return [(*ring[i], *ring[(i + 1) % len(ring)]) for i in range(len(ring))]


def _ring_area(ring) -> float:
    """Unsigned shoelace area of a ring in square degrees."""
    return abs(sum(x1 * y2 - x2 * y1 for x1, y1, x2, y2 in _edges(ring))) / 2.0


def _ring_crossings(ring, lon: np.ndarray, lat: np.ndarray):
    """(on_boundary, odd_crossings) bool arrays for one ring via even-odd ray
    casting. Where on_boundary is true, odd_crossings is meaningless."""
    on = np.zeros(lon.shape, dtype=bool)
    inside = np.zeros(lon.shape, dtype=bool)
    for x1, y1, x2, y2 in _edges(ring):
        cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
        on |= (
            (cross == 0.0)
            & (min(x1, x2) <= lon) & (lon <= max(x1, x2))
            & (min(y1, y2) <= lat) & (lat <= max(y1, y2))
        )
        if y1 == y2:
            continue  # a horizontal edge spans no latitude
        # half-open vertex rule so a ray through a vertex counts once
        spans = (y1 > lat) != (y2 > lat)
        x_at = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
        inside ^= spans & (lon < x_at)
    return on, inside


def contains(region: Region, lon, lat) -> np.ndarray:
    """Bool array: even-odd membership of each lon/lat point over all rings.

    A point on the outer ring is inside; one outside the outer ring is
    outside. Otherwise the holes are checked in order, and the first hole
    whose edge the point lies on (inside) or that contains it (outside)
    decides. Scalar inputs give a 0-d result usable as a bool.
    """
    lon, lat = np.broadcast_arrays(np.asarray(lon, dtype=float), np.asarray(lat, dtype=float))
    on, inside = _ring_crossings(region.rings[0], lon, lat)
    result = on | inside
    undecided = inside & ~on
    for hole in region.rings[1:]:
        on, in_hole = _ring_crossings(hole, lon, lat)
        result &= ~(undecided & in_hole & ~on)
        undecided &= ~(on | in_hole)
    return result


def boundary_distance_km(region: Region, lon, lat) -> np.ndarray:
    """Distance in km from each point to the nearest boundary segment of any ring.

    Each segment is measured on the equirectangular tangent plane at its
    midpoint latitude phi0: x = dlon*cos(phi0)*R, y = dlat*R. Adequate for
    buffer tests at a few hundred km.
    """
    lon, lat = np.broadcast_arrays(np.asarray(lon, dtype=float), np.asarray(lat, dtype=float))
    best = np.full(lon.shape, np.inf)
    ky = EARTH_RADIUS_KM * math.pi / 180.0
    for ring in region.rings:
        for x1, y1, x2, y2 in _edges(ring):
            kx = math.cos(math.radians((y1 + y2) / 2.0)) * EARTH_RADIUS_KM * math.pi / 180.0
            px, py = (lon - x1) * kx, (lat - y1) * ky
            sx, sy = (x2 - x1) * kx, (y2 - y1) * ky
            seg2 = sx * sx + sy * sy
            t = 0.0 if seg2 == 0.0 else np.clip((px * sx + py * sy) / seg2, 0.0, 1.0)
            np.minimum(best, np.hypot(px - t * sx, py - t * sy), out=best)
    return best


def within_buffer(region: Region, lon, lat, buffer_km: float) -> np.ndarray:
    """Bool array: each point is inside the region or within ``buffer_km`` of
    its boundary; 0 means no buffer. Distances are computed for outside
    points only."""
    if not buffer_km >= 0:
        raise UsageError(f"buffer distance must be a non-negative number of km, got {buffer_km}")
    lon, lat = np.broadcast_arrays(np.asarray(lon, dtype=float), np.asarray(lat, dtype=float))
    keep = np.asarray(contains(region, lon, lat))  # writable, also for 0-d input
    if buffer_km == 0.0:
        return keep
    outside = ~keep
    keep[outside] = boundary_distance_km(region, lon[outside], lat[outside]) <= buffer_km
    return keep


def clip_points(points: PointTable, region: Region, buffer_km: float) -> PointTable:
    """Records with within_buffer true, order preserved."""
    return points.subset(within_buffer(region, points.lon, points.lat, buffer_km))


def read_region(path) -> Region:
    """Read a region from a GeoJSON file.

    Accepts a FeatureCollection, a bare Feature, or a bare Polygon geometry;
    only the first Polygon is used. Coordinates are [lon, lat]. MultiPolygon
    and other geometry types are rejected.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read region file: {exc}", path=path) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}", path=path) from exc

    name = ""
    if not isinstance(doc, dict):
        raise ParseError("region document must be a JSON object", path=path)
    kind = doc.get("type")
    if kind == "FeatureCollection":
        features = doc.get("features")
        if not isinstance(features, list) or not features:
            raise ParseError("FeatureCollection needs a non-empty features list", path=path)
        feature = features[0]
    elif kind == "Feature":
        feature = doc
    elif kind == "Polygon":
        feature = {"geometry": doc, "properties": {}}
    else:
        raise ParseError(f"unsupported GeoJSON type: {kind!r}", path=path)

    if not isinstance(feature, dict):
        raise ParseError("a feature must be a JSON object", path=path)
    geometry = feature.get("geometry") or {}
    kind = geometry.get("type") if isinstance(geometry, dict) else None
    if kind != "Polygon":
        raise ParseError(f"first feature must be a Polygon, got {kind!r}", path=path)
    props = feature.get("properties") or {}
    if isinstance(props, dict):
        name = str(props.get("name", ""))

    coordinates = geometry.get("coordinates") or []
    if not isinstance(coordinates, list) or not all(isinstance(r, list) for r in coordinates):
        raise ParseError("polygon coordinates must be a list of rings, each a list", path=path)
    rings = []
    for ring in coordinates:
        if len(ring) < 4:
            raise ParseError("polygon ring needs at least 4 on-disk vertices", path=path)
        for pt in ring:
            # JSON numbers only: float() would also take "1.5" and true
            if not (isinstance(pt, (list, tuple)) and len(pt) >= 2
                    and all(type(v) in (int, float) for v in pt[:2])):
                raise ParseError("ring coordinates must be [lon, lat] number pairs", path=path)
        rings.append(tuple((p[0], p[1]) for p in ring))
    if not rings:
        raise ParseError("polygon has no rings", path=path)
    try:
        return Region(rings=tuple(rings), name=name)
    except UsageError as exc:
        raise ParseError(str(exc), path=path) from exc


def write_region(region: Region, path) -> None:
    """Write a region as a single-feature GeoJSON FeatureCollection."""
    coords = [[[lon, lat] for lon, lat in ring] + [[ring[0][0], ring[0][1]]] for ring in region.rings]
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"name": region.name},
                "geometry": {"type": "Polygon", "coordinates": coords},
            }
        ],
    }
    Path(path).write_text(json.dumps(doc))
