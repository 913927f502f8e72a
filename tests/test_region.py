import json
import math

import numpy as np
import pytest

from finegrid import (
    ParseError,
    PointTable,
    Region,
    UsageError,
    boundary_distance_km,
    clip_points,
    contains,
    read_region,
    within_buffer,
    write_region,
)

UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

ANNULUS = (
    ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)),
    ((1.5, 1.5), (2.5, 1.5), (2.5, 2.5), (1.5, 2.5)),
)

# 1 km of longitude at the equator, in degrees (great circle, R = 6371.0088)
DEG_PER_KM_EQUATOR = 0.00899320363724538


def winding_inside(ring, lon, lat):
    """Winding-number membership, the independent oracle for simple polygons."""
    angle = 0.0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i][0] - lon, ring[i][1] - lat
        x2, y2 = ring[(i + 1) % n][0] - lon, ring[(i + 1) % n][1] - lat
        angle += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
    return abs(angle) > math.pi


def _ring_crossings_ref(ring, lon, lat):
    """Scalar reference: (on_boundary, odd_crossings) for one ring."""
    n = len(ring)
    inside = False
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
        if cross == 0.0 and (min(x1, x2) <= lon <= max(x1, x2)
                             and min(y1, y2) <= lat <= max(y1, y2)):
            return True, inside
        if (y1 > lat) != (y2 > lat):
            x_at = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
            if lon < x_at:
                inside = not inside
    return False, inside


def contains_ref(region, lon, lat):
    """Scalar reference membership with the ordered-hole rule."""
    on, inside = _ring_crossings_ref(region.rings[0], lon, lat)
    if on:
        return True
    if not inside:
        return False
    for hole in region.rings[1:]:
        on, in_hole = _ring_crossings_ref(hole, lon, lat)
        if on:
            return True
        if in_hole:
            return False
    return True


def boundary_distance_km_ref(region, lon, lat):
    """Scalar reference: nearest segment on each segment's midpoint tangent plane."""
    best = math.inf
    for ring in region.rings:
        n = len(ring)
        for i in range(n):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % n]
            kx = math.cos(math.radians((y1 + y2) / 2.0)) * 6371.0088 * math.pi / 180.0
            ky = 6371.0088 * math.pi / 180.0
            px, py = (lon - x1) * kx, (lat - y1) * ky
            sx, sy = (x2 - x1) * kx, (y2 - y1) * ky
            seg2 = sx * sx + sy * sy
            t = 0.0 if seg2 == 0.0 else max(0.0, min(1.0, (px * sx + py * sy) / seg2))
            best = min(best, math.hypot(px - t * sx, py - t * sy))
    return best


def within_buffer_ref(region, lon, lat, distance_km):
    if contains_ref(region, lon, lat):
        return True
    return distance_km > 0.0 and boundary_distance_km_ref(region, lon, lat) <= distance_km


class TestRegionConstruction:
    def test_closed_ring_stored_unclosed(self):
        r = Region(rings=(UNIT_SQUARE + ((0.0, 0.0),),))
        assert len(r.rings[0]) == 4

    def test_too_few_vertices(self):
        with pytest.raises(UsageError):
            Region(rings=(((0.0, 0.0), (1.0, 0.0)),))

    def test_degenerate_outer_ring(self):
        with pytest.raises(UsageError):
            Region(rings=(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)),))

    def test_non_numeric_vertex(self):
        with pytest.raises(UsageError):
            Region(rings=((("a", 0.0),) + UNIT_SQUARE,))

    def test_ring_not_a_sequence(self):
        with pytest.raises(UsageError):
            Region(rings=(UNIT_SQUARE, 5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vertex(self, bad):
        with pytest.raises(UsageError, match="finite"):
            Region(rings=(((bad, 0.0),) + UNIT_SQUARE,))


class TestGeoJson:
    def test_unit_square_feature_collection(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {"name": "8.5.1"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                },
            }],
        }
        path = tmp_path / "sq.geojson"
        path.write_text(json.dumps(doc))
        r = read_region(path)
        assert len(r.rings) == 1
        assert len(r.rings[0]) == 4
        assert r.name == "8.5.1"

    def test_polygon_with_hole(self, tmp_path):
        doc = {
            "type": "Polygon",
            "coordinates": [
                [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]],
                [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]],
            ],
        }
        path = tmp_path / "hole.geojson"
        path.write_text(json.dumps(doc))
        assert len(read_region(path).rings) == 2

    def test_linestring_rejected(self, tmp_path):
        doc = {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
        }
        path = tmp_path / "ls.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="Polygon"):
            read_region(path)

    def test_multipolygon_rejected(self, tmp_path):
        doc = {"type": "Feature",
               "geometry": {"type": "MultiPolygon", "coordinates": []}}
        path = tmp_path / "mp.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_region(path)

    def test_short_ring_rejected(self, tmp_path):
        doc = {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 0]]]}
        path = tmp_path / "short.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="4"):
            read_region(path)

    @pytest.mark.parametrize("text", [
        '{"type": "Polygon", "coordinates": [[["a", 0], [1, 0], [1, 1], [0, 1], ["a", 0]]]}',
        '{"type": "Polygon", "coordinates": [[[true, 0], [1, 0], [1, 1], [0, 1], [true, 0]]]}',
        '{"type": "FeatureCollection", "features": [5]}',
        '{"type": "Polygon", "coordinates": [5]}',
        '{"type": "Polygon", "coordinates": [[[NaN, 0], [1, 0], [1, 1], [0, 1], [NaN, 0]]]}',
        '{"type": "Polygon", "coordinates": [[[0, 0], [Infinity, 0], [1, 1], [0, 1], [0, 0]]]}',
    ], ids=["non-numeric", "boolean", "feature-not-object", "ring-not-list", "nan", "infinity"])
    def test_malformed_coordinates_rejected(self, tmp_path, text):
        path = tmp_path / "bad.geojson"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_region(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_region(path)

    def test_write_read_round_trip(self, tmp_path):
        r = Region(rings=ANNULUS, name="ring")
        path = tmp_path / "rt.geojson"
        write_region(r, path)
        back = read_region(path)
        assert back.rings == r.rings
        assert back.name == "ring"


class TestContains:
    def test_center_of_square(self):
        r = Region(rings=(UNIT_SQUARE,))
        assert contains(r, 0.5, 0.5)
        assert not contains(r, 1.5, 0.5)

    def test_hole_of_annulus(self):
        r = Region(rings=ANNULUS)
        assert contains(r, 0.5, 0.5)
        assert not contains(r, 2.0, 2.0)

    def test_boundary_counts_as_inside(self):
        r = Region(rings=(UNIT_SQUARE,))
        assert contains(r, 0.0, 0.0)      # outer vertex
        assert contains(r, 0.5, 0.0)      # outer edge
        annulus = Region(rings=ANNULUS)
        assert contains(annulus, 1.5, 1.5)  # hole vertex
        assert contains(annulus, 2.0, 1.5)  # hole edge

    def test_matches_winding_number_oracle(self, rng):
        for _ in range(20):
            # random convex polygon: hull of random points
            pts = rng.uniform(-5, 5, (12, 2))
            center = pts.mean(axis=0)
            angles = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
            hull = pts[np.argsort(angles)]
            region = Region(rings=(tuple(map(tuple, hull)),))
            probes_lon = rng.uniform(-6, 6, 50)
            probes_lat = rng.uniform(-6, 6, 50)
            for lon, lat in zip(probes_lon, probes_lat):
                assert contains(region, lon, lat) == winding_inside(
                    region.rings[0], lon, lat
                )


class TestWithinBuffer:
    def test_interior_with_zero_buffer(self):
        r = Region(rings=(UNIT_SQUARE,))
        assert within_buffer(r, 0.5, 0.5, 0.0)

    def test_one_km_east_with_100km_buffer(self):
        # point 1 km due east of the east edge of the unit square, on the equator
        r = Region(rings=(UNIT_SQUARE,))
        lon = 1.0 + DEG_PER_KM_EQUATOR
        assert not contains(r, lon, 0.5)
        assert boundary_distance_km(r, lon, 0.5) == pytest.approx(1.0, abs=0.01)
        assert within_buffer(r, lon, 0.5, 100.0)

    def test_200km_away_not_within_100km_buffer(self):
        r = Region(rings=(UNIT_SQUARE,))
        lon = 1.0 + 200.0 * DEG_PER_KM_EQUATOR
        assert boundary_distance_km(r, lon, 0.5) == pytest.approx(200.0, rel=0.01)
        assert not within_buffer(r, lon, 0.5, 100.0)

    def test_monotone_in_distance(self, rng):
        r = Region(rings=(UNIT_SQUARE,))
        for _ in range(100):
            lon, lat = rng.uniform(-2, 3, 2)
            d1, d2 = sorted(rng.uniform(0, 300, 2))
            if within_buffer(r, lon, lat, d1):
                assert within_buffer(r, lon, lat, d2)

    def test_zero_buffer_equals_contains_off_boundary(self, rng):
        r = Region(rings=ANNULUS)
        for _ in range(200):
            lon, lat = rng.uniform(-1, 5, 2)
            assert within_buffer(r, lon, lat, 0.0) == contains(r, lon, lat)

    @pytest.mark.parametrize("km", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_distance_rejected(self, km):
        r = Region(rings=(UNIT_SQUARE,))
        with pytest.raises(UsageError, match="non-negative number of km"):
            within_buffer(r, 0.5, 0.5, km)


class TestClipPoints:
    def make_points(self, rng, n):
        return PointTable(rng.uniform(-1, 2, n), rng.uniform(-1, 2, n),
                          rng.random(n), np.zeros((n, 0)))

    def test_all_interior_is_identity(self, rng):
        r = Region(rings=(UNIT_SQUARE,))
        pts = PointTable([0.2, 0.8], [0.3, 0.6], [0.1, 0.2], np.zeros((2, 0)))
        out = clip_points(pts, r, 0.0)
        assert out == pts

    def test_zero_buffer_equals_contains_clip(self, rng):
        r = Region(rings=(UNIT_SQUARE,))
        pts = self.make_points(rng, 100)
        out = clip_points(pts, r, 0.0)
        expect = [i for i in range(100) if contains(r, pts.lon[i], pts.lat[i])]
        np.testing.assert_array_equal(out.lon, pts.lon[expect])

    def test_buffer_monotonicity(self, rng):
        r = Region(rings=(UNIT_SQUARE,))
        pts = self.make_points(rng, 150)
        small = clip_points(pts, r, 20.0)
        large = clip_points(pts, r, 120.0)
        assert len(large) >= len(small)
        assert set(small.lon) <= set(large.lon)

    def test_whole_plane_polygon_is_identity(self, rng):
        world = Region(rings=(((-180.0, -89.0), (180.0, -89.0),
                               (180.0, 89.0), (-180.0, 89.0)),))
        pts = self.make_points(rng, 40)
        assert clip_points(pts, world, 0.0) == pts

    def test_order_preserved(self, rng):
        r = Region(rings=(UNIT_SQUARE,))
        pts = self.make_points(rng, 60)
        out = clip_points(pts, r, 50.0)
        kept = [i for i in range(60)
                if within_buffer(r, pts.lon[i], pts.lat[i], 50.0)]
        np.testing.assert_array_equal(out.lat, pts.lat[kept])


def star_ring(rng, cx, cy, radius, n, step=None):
    """Star-shaped ring around (cx, cy); vertices snapped to `step` if given."""
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    radii = radius * rng.uniform(0.3, 1.0, n)
    pts = np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])
    if step is not None:
        pts = np.round(pts / step) * step
    return tuple(map(tuple, pts))


def random_region(rng, step=None):
    """Outer star ring plus 0-3 holes that may overlap each other and the outer ring."""
    while True:
        rings = [star_ring(rng, 0.0, 30.0, 4.0, int(rng.integers(3, 12)), step)]
        for _ in range(int(rng.integers(0, 4))):
            cx, cy = rng.uniform(-2, 2), 30.0 + rng.uniform(-2, 2)
            rings.append(star_ring(rng, cx, cy, rng.uniform(0.5, 2.5),
                                   int(rng.integers(3, 8)), step))
        try:
            return Region(rings=tuple(rings))
        except UsageError:
            continue


def probes(rng, region, n, step=None):
    """Random points plus every vertex, points along every edge, and, with a
    lattice step, lattice points that land exactly on lattice edges."""
    lon = list(rng.uniform(-5, 5, n))
    lat = list(30.0 + rng.uniform(-5, 5, n))
    for ring in region.rings:
        m = len(ring)
        for i in range(m):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % m]
            for t in (0.0, 0.5, float(rng.random())):
                lon.append(x1 + t * (x2 - x1))
                lat.append(y1 + t * (y2 - y1))
    if step is not None:
        g = np.arange(-5.0, 5.0 + step, step)
        glon, glat = np.meshgrid(g, 30.0 + g)
        lon.extend(glon.ravel())
        lat.extend(glat.ravel())
    return np.array(lon), np.array(lat)


class TestVectorisedMatchesScalarReference:
    CASES = [None] * 8 + [0.5] * 8  # free-form rings, then lattice rings and probes

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_random_polygons_with_holes(self, case):
        rng = np.random.default_rng(1000 + case)
        step = self.CASES[case]
        region = random_region(rng, step)
        lon, lat = probes(rng, region, 300, step)
        inside = contains(region, lon, lat)
        assert inside.dtype == bool and inside.shape == lon.shape
        expect = [contains_ref(region, x, y) for x, y in zip(lon, lat)]
        np.testing.assert_array_equal(inside, expect)

        dist = boundary_distance_km(region, lon, lat)
        ref = np.array([boundary_distance_km_ref(region, x, y) for x, y in zip(lon, lat)])
        assert np.all(np.abs(dist - ref) <= np.spacing(ref))

        for km in (0.0, 37.5, 150.0):
            keep = within_buffer(region, lon, lat, km)
            expect = [within_buffer_ref(region, x, y, km) for x, y in zip(lon, lat)]
            np.testing.assert_array_equal(keep, expect)
            pts = PointTable(lon, lat, np.arange(len(lon), dtype=float), np.zeros((len(lon), 0)))
            assert clip_points(pts, region, km) == pts.subset(np.array(expect))

    def test_overlapping_holes_follow_ring_order(self):
        outer = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))
        a = ((2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0))
        b = ((4.0, 4.0), (8.0, 4.0), (8.0, 8.0), (4.0, 8.0))
        lon = np.array([3.0, 5.0, 7.0, 4.0, 6.0, 5.0, 9.0])
        lat = np.array([3.0, 5.0, 7.0, 5.0, 5.0, 4.0, 9.0])
        for rings in ((outer, a, b), (outer, b, a)):
            region = Region(rings=rings)
            expect = [contains_ref(region, x, y) for x, y in zip(lon, lat)]
            np.testing.assert_array_equal(contains(region, lon, lat), expect)
        # (4, 5) lies on hole b's edge inside hole a: the first hole decides
        assert not contains(Region(rings=(outer, a, b)), 4.0, 5.0)
        assert contains(Region(rings=(outer, b, a)), 4.0, 5.0)

    def test_consecutive_duplicate_vertices(self, rng):
        ring = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        hole = ((0.25, 0.25), (0.5, 0.25), (0.5, 0.25), (0.5, 0.5))
        region = Region(rings=(ring, hole))
        assert len(region.rings[0]) == 6
        lon = np.concatenate([rng.uniform(-1, 2, 200), [1.0, 0.0, 0.5, 0.5, 0.375]])
        lat = np.concatenate([rng.uniform(-1, 2, 200), [0.0, 1.0, 0.25, 0.3, 0.3]])
        expect = [contains_ref(region, x, y) for x, y in zip(lon, lat)]
        np.testing.assert_array_equal(contains(region, lon, lat), expect)
        ref = np.array([boundary_distance_km_ref(region, x, y) for x, y in zip(lon, lat)])
        assert np.all(np.abs(boundary_distance_km(region, lon, lat) - ref) <= np.spacing(ref))
        expect = [within_buffer_ref(region, x, y, 60.0) for x, y in zip(lon, lat)]
        np.testing.assert_array_equal(within_buffer(region, lon, lat, 60.0), expect)

    def test_scalar_inputs_act_as_bools(self, rng):
        region = Region(rings=ANNULUS)
        for lon, lat in [(0.5, 0.5), (2.0, 2.0), (1.5, 1.5), (4.5, 2.0), (9.0, 9.0)]:
            assert bool(contains(region, lon, lat)) is contains_ref(region, lon, lat)
            for km in (0.0, 80.0):
                assert bool(within_buffer(region, lon, lat, km)) is \
                    within_buffer_ref(region, lon, lat, km)
            d = float(boundary_distance_km(region, lon, lat))
            ref = boundary_distance_km_ref(region, lon, lat)
            assert abs(d - ref) <= np.spacing(ref)
