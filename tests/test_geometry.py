"""Polygon representation, quality constants, and per-point geometry."""

import json
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from mvcoords.audit import random_convex_polygon
from mvcoords.coords import (
    OK,
    _edge_limit_values,
    _normalized,
    evaluate,
    interior_coordinates,
    mvc_values,
)
from mvcoords.errors import (
    DegenerateEdge,
    NonConvex,
    OutsidePolygon,
    PolygonError,
    WrongOrientation,
)
from mvcoords.geometry import (
    MAX_VERTICES,
    Polygon,
    _frame_table,
    _inscribed_circle,
    _inset,
    _rot_ccw,
    apex_pentagon,
    compute_hstar,
    geometric_constants,
    load_polygon,
    min_vertex_distance,
    normalize_to_unit_diameter,
    point_geometry_batch,
    polygon_from_json,
    save_polygon,
)

SQUARE = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])

# unit square with mid-side nodes: four corner angles of pi/2 and four
# flat angles of exactly pi
OCT8 = Polygon(
    [
        (0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 0.5),
        (1.0, 1.0), (0.5, 1.0), (0.0, 1.0), (0.0, 0.5),
    ]
)

TRI_345 = Polygon([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
EQUILATERAL = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3.0) / 2.0)])
HEXAGON = Polygon(
    [(np.cos(k * np.pi / 3.0), np.sin(k * np.pi / 3.0)) for k in range(6)]
)


# ---------------------------------------------------------------- validation

def test_unit_square_is_valid():
    assert SQUARE.n == 4
    assert SQUARE.area == pytest.approx(1.0)


def test_midside_nodes_allowed():
    """Angles of exactly pi must pass validation (octagon elements rely on it)."""
    assert OCT8.n == 8
    assert OCT8.area == pytest.approx(1.0)


def test_reflex_vertex_rejected():
    with pytest.raises(NonConvex):
        Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, -0.5), (1.0, 1.0)])


def test_reflex_vertex_named_by_input_index():
    """The reflex vertex is named by its index in the loop as given, in
    either orientation."""
    ccw = [(0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (1.5, 1.2), (3.0, 2.0), (0.0, 2.0)]
    with pytest.raises(NonConvex, match=r"vertex 3$"):
        Polygon(ccw)
    with pytest.raises(NonConvex, match=r"vertex 2$"):
        Polygon(ccw[::-1])


def test_repeated_vertex_rejected():
    with pytest.raises(DegenerateEdge):
        Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_too_few_vertices_rejected():
    with pytest.raises(PolygonError):
        Polygon([(0.0, 0.0), (1.0, 0.0)])


def test_clockwise_input_reversed_with_warning():
    cw = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
    with pytest.warns(WrongOrientation):
        p = Polygon(cw)
    # stored loop is counterclockwise afterwards
    assert p.area > 0
    assert_allclose(p.vertices[0], (1.0, 0.0))


def test_too_many_vertices_rejected_before_the_pair_table(monkeypatch):
    """Past MAX_VERTICES the polygon is refused by count, before the vertex
    pair table (which grows as n^2) is built; at the cap it is built."""
    def refused(*args, **kwargs):
        raise AssertionError("the vertex pair table was built")

    monkeypatch.setattr(np, "triu_indices", refused)
    with pytest.raises(PolygonError, match=rf"^{MAX_VERTICES + 1} vertices, .* {MAX_VERTICES} "):
        regular_polygon(MAX_VERTICES + 1)
    with pytest.raises(AssertionError, match="pair table"):
        regular_polygon(MAX_VERTICES)


def test_nonfinite_vertex_rejected():
    with pytest.raises(PolygonError):
        Polygon([(0.0, 0.0), (1.0, np.nan), (0.0, 1.0)])


# ------------------------------------------------------------------- metrics

def test_diameter_values():
    assert SQUARE.diameter == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert EQUILATERAL.diameter == pytest.approx(1.0, abs=1e-15)
    assert apex_pentagon(1.5).diameter == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)


@pytest.mark.parametrize(
    "poly,expected",
    [
        (SQUARE, 0.5),
        (EQUILATERAL, 1.0 / (2.0 * np.sqrt(3.0))),
        (TRI_345, 1.0),  # area 6 over semiperimeter 6
        (HEXAGON, np.sqrt(3.0) / 2.0),
        (OCT8, 0.5),
        # rhombus with half-diagonals a = 1/2, b = 5e-11: ab / sqrt(a^2 + b^2)
        (Polygon([(0.0, 0.0), (0.5, -5e-11), (1.0, 0.0), (0.5, 5e-11)]),
         0.5 * 5e-11 / np.hypot(0.5, 5e-11)),
        (Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-11), (0.0, 1e-11)]), 5e-12),
        (apex_pentagon(1.0 + 1e-9), 1.0),
    ],
)
def test_inradius_values(poly, expected):
    assert poly.inradius == pytest.approx(expected, rel=1e-12)


def test_pentagon_inradius_is_square_half_width():
    # the inscribed circle of the apex pentagon is the square part's circle
    assert apex_pentagon(1.5).inradius == pytest.approx(1.0, rel=1e-9)
    assert apex_pentagon(1.05).inradius == pytest.approx(1.0, rel=1e-9)


def test_inradius_of_a_square_at_every_scale():
    """Half the side to roundoff. A linear program with absolute
    tolerances near 1e-7 reads twice that below about 1e-7."""
    for s in (1e-9, 1e-7, 1.0, 1e9):
        p = Polygon(s * np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
        assert p.inradius == pytest.approx(s / 2.0, rel=1e-15)


def regular_polygon(n: int) -> Polygon:
    a = 2.0 * np.pi * np.arange(n) / n
    return Polygon(np.column_stack([np.cos(a), np.sin(a)]))


@pytest.mark.parametrize("n", [5, 8, 100, 1000])
def test_inradius_of_regular_polygons(n):
    p = regular_polygon(n)
    t0 = time.perf_counter()
    r = p.inradius
    assert time.perf_counter() - t0 < 0.5
    assert r == pytest.approx(np.cos(np.pi / n), rel=1e-12)


def test_sweep_table_is_read_only(polygon_suite):
    for p in [SQUARE, OCT8, HEXAGON, apex_pentagon(1.001), *polygon_suite]:
        for table in p._sweep:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0


def edge_line_depth(p: Polygon, x) -> float:
    """Smallest signed distance from x to the edge lines."""
    normal, offset = p.edge_lines
    return float(np.min(normal @ np.asarray(x) - offset))


def test_inradius_is_the_edge_line_distance_at_its_centre(polygon_suite):
    for p in [SQUARE, OCT8, TRI_345, HEXAGON, apex_pentagon(1.001), *polygon_suite]:
        centre, r = _inscribed_circle(p)
        assert r == p.inradius
        assert edge_line_depth(p, centre) == pytest.approx(r, rel=1e-12)


def _clip(loop, normal, offset):
    """The part of a convex loop where normal . x >= offset (one
    Sutherland-Hodgman pass)."""
    out = []
    for a, b in zip(loop, np.roll(loop, -1, axis=0)):
        fa, fb = normal @ a - offset, normal @ b - offset
        if fa >= 0.0:
            out.append(a)
        if fa * fb < 0.0:
            out.append(a + fa / (fa - fb) * (b - a))
    return np.array(out)


def _shoelace(loop):
    x, y = loop.T
    return 0.5 * float(x @ np.roll(y, -1) - np.roll(x, -1) @ y)


def test_inset_is_the_intersection_of_the_offset_half_planes(polygon_suite):
    """At margins up to 0.999 of the inradius, the inset has the area of the
    polygon clipped by every edge line moved in by the margin, and each of
    its vertices lies at the margin from its two lines and no nearer to
    any other."""
    for p in [SQUARE, OCT8, TRI_345, HEXAGON, apex_pentagon(1.001), apex_pentagon(1.5),
              *polygon_suite]:
        normal, offset = p.edge_lines
        for fraction in (1e-7, 0.1, 0.5, 0.9, 0.999):
            margin = fraction * p.inradius
            w = _inset(p, margin)
            clipped = p.vertices
            for n_k, b_k in zip(normal, offset):
                clipped = _clip(clipped, n_k, b_k + margin)
            assert _shoelace(w) == pytest.approx(_shoelace(clipped), rel=1e-9, abs=1e-15)
            depth = np.sort(w @ normal.T - offset, axis=1)
            assert np.abs(depth[:, :2] - margin).max() <= 1e-14 * p.diameter
            assert np.all(depth[:, 2:] >= margin - 1e-14 * p.diameter)


def rotation(theta: float) -> np.ndarray:
    """Matrix that turns row vectors by theta when applied on the right."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def test_inradius_is_similarity_invariant(polygon_suite):
    rng = np.random.default_rng(7)
    for p in [TRI_345, HEXAGON, apex_pentagon(1.01), *polygon_suite]:
        for s in (1e-9, 1e-4, 1.0, 1e4, 1e9):
            shift = rng.uniform(-3.0, 3.0, 2)
            image = s * (p.vertices @ rotation(rng.uniform(0.0, 2.0 * np.pi)) + shift)
            assert Polygon(image).inradius == pytest.approx(s * p.inradius, rel=1e-12)


def linprog_inradius(p: Polygon) -> float:
    """Test oracle: the largest inscribed circle as a linear program at
    unit diameter, read as the edge-line distance at the program's centre."""
    q = Polygon((p.vertices - p.centroid) / p.diameter)
    normal, offset = q.edge_lines
    res = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([-normal, np.ones(q.n)]),
                  b_ub=-offset, bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    assert res.success
    return edge_line_depth(q, res.x[:2]) * p.diameter


def test_inradius_matches_a_linear_program():
    """Random hulls stretched to aspect ratios up to 1e5."""
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        pts = rng.normal(size=(int(rng.integers(3, 30)), 2)) * 10.0 ** rng.uniform(-4.5, 0.0, 2)
        pts = pts @ rotation(rng.uniform(0.0, 2.0 * np.pi))
        p = Polygon(pts[ConvexHull(pts).vertices])
        if p.diameter / p.inradius >= 1e5:
            continue
        assert p.inradius == pytest.approx(linprog_inradius(p), rel=1e-12)
        checked += 1


def _circle_triangle(rng):
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 3))
    return np.column_stack([np.cos(t), np.sin(t)]) + rng.uniform(-100.0, 100.0, 2)


def _thin_triangle(rng):
    """A unit base at a random rotation, the apex 1e-3..1 above a point in
    [-0.2, 1.2] of it, centred up to 100 from the origin."""
    turn = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(turn), np.sin(turn)], [-np.sin(turn), np.cos(turn)]])
    apex = (rng.uniform(-0.2, 1.2), 10.0 ** rng.uniform(-3.0, 0.0))
    return np.array([(0.0, 0.0), (1.0, 0.0), apex]) @ rot + rng.uniform(-100.0, 100.0, 2)


def _worst_inradius_error(draw) -> float:
    """Largest relative error of the inradius against 50-digit 2A / P of
    the float vertices over 3,000 drawn triangles."""
    rng = np.random.default_rng(7)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(3000):
            p = Polygon(draw(rng))
            a, b, c = ([mpmath.mpf(float(x)) for x in q] for q in p.vertices)
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            perimeter = sum(mpmath.hypot(q[0] - r[0], q[1] - r[1]) for q, r in ((b, a), (c, b), (a, c)))
            worst = max(worst, float(abs(p.inradius * perimeter / area2 - 1)))
    return worst


def test_triangle_inradius_matches_exact_2a_over_p():
    """Random triangles inscribed in a unit circle centred up to 100 from
    the origin, thin ones included (diameter / inradius up to 1.6e4): the
    inradius is 2A / P to 1e-15 relative. Solving for the incentre through
    the edge normals loses up to 3.1e-13 on the same triangles."""
    assert _worst_inradius_error(_circle_triangle) <= 1e-15


def test_thin_triangle_inradius_has_an_exact_twice_area():
    """On thin triangles a float shoelace 2A loses about eps |e1| |e2| / A,
    up to 7.3e-14 relative on this set; the exact one keeps 2A / P to
    1e-15."""
    assert _worst_inradius_error(_thin_triangle) <= 1e-15


def test_interior_angles_square():
    assert_allclose(SQUARE.interior_angles, np.pi / 2.0, rtol=0, atol=1e-12)


def test_interior_angles_octagon_alternate():
    expected = np.tile([np.pi / 2.0, np.pi], 4)
    assert_allclose(OCT8.interior_angles, expected, rtol=0, atol=1e-9)


def test_interior_angle_sum(polygon_suite):
    for p in polygon_suite:
        total = p.interior_angles.sum()
        assert total == pytest.approx((p.n - 2) * np.pi, abs=1e-12)


def test_pentagon_angles():
    deg = np.degrees(apex_pentagon(1.5).interior_angles)
    assert_allclose(deg, [116.56505118, 90.0, 90.0, 116.56505118, 126.86989765],
                    atol=1e-7)


def test_pentagon_apex_angle_flattens():
    a_105 = apex_pentagon(1.05).interior_angles[4]
    a_101 = apex_pentagon(1.01).interior_angles[4]
    assert np.degrees(a_105) == pytest.approx(174.2751895, abs=1e-6)
    assert a_101 > a_105  # approaches pi from below as the apex drops
    assert a_101 < np.pi


def test_apex_pentagon_requires_height_above_one():
    with pytest.raises(ValueError):
        apex_pentagon(1.0)


def test_far_translate_validates():
    # adding 2^30 is exact, but the shoelace sum on absolute coordinates
    # cancels to zero; taken about vertex 0 it keeps every digit
    p = Polygon(apex_pentagon(1.5).vertices + 2.0**30)
    assert p.area == 4.5


@pytest.mark.parametrize("s", [1e160, 1e200, 1e-200])
def test_scaled_pentagon_validates(s):
    """Far from unit size the vertex distances neither overflow nor
    underflow, and the shape tests decide as at unit size."""
    p = apex_pentagon(1.5)
    q = Polygon(p.vertices * s)
    assert q.diameter == pytest.approx(s * p.diameter, rel=1e-15)
    assert min_vertex_distance(q) == pytest.approx(s * min_vertex_distance(p), rel=1e-15)


@pytest.mark.parametrize("s", [1e-310, 1e-320])
def test_subnormal_polygon_is_rejected(s):
    """A polygon of subnormal diameter has no finite frame scale: a typed
    error, not NaN coordinates and constants."""
    with pytest.raises(DegenerateEdge, match="coincide, or nearly"):
        Polygon(apex_pentagon(1.5).vertices * s)


def test_min_vertex_distance():
    assert min_vertex_distance(SQUARE) == pytest.approx(1.0)
    # apex corners are the closest pair of the flat pentagon
    assert min_vertex_distance(apex_pentagon(1.05)) == pytest.approx(
        np.sqrt(1.0025), rel=1e-12
    )


def test_signed_boundary_distance_of_non_finite_points():
    """-inf for a point with an infinite coordinate and no NaN, NaN for a
    NaN point, with no warning; finite points read the same as alone."""
    pts = np.array([(np.inf, 0.2), (0.5, -np.inf), (np.inf, np.inf), (np.nan, 0.2),
                    (np.inf, np.nan), (0.25, 0.5), (2.0, 0.5)])
    sd = SQUARE.signed_boundary_distance(pts)
    assert sd[:3].tolist() == [-np.inf] * 3
    assert np.isnan(sd[3:5]).all()
    assert np.array_equal(sd[5:], SQUARE.signed_boundary_distance(pts[5:]))
    assert sd[5:].tolist() == [0.25, -1.0]


def test_signed_boundary_distance_of_finite_points_near_the_float_limit():
    """A finite point far outside reads a finite distance or -inf, never
    NaN, with no overflow warning (the suite makes warnings errors), so
    evaluation calls it outside; points inside keep their distance."""
    tri = Polygon([(0.0, 0.0), (1.4, 0.0), (0.0, 1.4)])
    sd = tri.signed_boundary_distance([(1.5e308, -1.5e308), (-1.7e308, 1.7e308), (0.2, 0.3)])
    assert sd[0] == pytest.approx(-1.5e308, rel=1e-15)
    assert sd[1] == pytest.approx(-1.7e308, rel=1e-15)
    assert sd[2] == tri.signed_boundary_distance([(0.2, 0.3)])[0]
    with pytest.raises(OutsidePolygon, match="point index 0"):
        mvc_values(tri, (1.5e308, -1.5e308))
    unit = Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    far = unit.signed_boundary_distance([(1e308, 1e308), (-1.7e308, -1.7e308), (1.7e308, 1.7e308)])
    assert far[0] == pytest.approx(-np.sqrt(2.0) * 1e308, rel=1e-15)
    assert far[1] == -1.7e308 and far[2] == -np.inf  # its true distance is past the float range


# ---------------------------------------------------------- separation radius

def test_hstar_square():
    # two non-adjacent edge pairs, both at distance 1
    assert compute_hstar(SQUARE) == pytest.approx(0.5, abs=1e-12)


def test_hstar_octagon():
    # half-edges around a corner are non-adjacent and 0.5 apart
    assert compute_hstar(OCT8) == pytest.approx(0.25, abs=1e-12)


def test_hstar_hexagon():
    assert compute_hstar(HEXAGON) == pytest.approx(0.5, abs=1e-12)


def test_hstar_pentagon_values():
    # closest non-adjacent pair: left edge against the right slant (and mirror)
    assert compute_hstar(apex_pentagon(1.5)) == pytest.approx(
        np.sqrt(5.0) / 4.0, abs=1e-12
    )
    assert compute_hstar(apex_pentagon(1.05)) == pytest.approx(
        np.sqrt(1.0025) / 2.0, abs=1e-12
    )


def test_hstar_shrinks_with_apex():
    vals = [compute_hstar(apex_pentagon(a)) for a in (1.5, 1.1, 1.01, 1.001)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_hstar_triangle_matches_incircle(rng):
    """For triangles only the three-edge clause binds, and the optimal center
    is the incenter, so h* is the incircle radius: the common edge distance
    at the side-length-weighted vertex mean, and no interior point has a
    smaller largest edge distance."""
    assert compute_hstar(TRI_345) == pytest.approx(1.0, rel=1e-12)
    assert compute_hstar(EQUILATERAL) == pytest.approx(
        1.0 / (2.0 * np.sqrt(3.0)), rel=1e-12
    )
    for _ in range(5):
        v = rng.uniform(-1.0, 1.0, (3, 2))
        a, b = v[1] - v[0], v[2] - v[0]
        tri = Polygon(v if a[0] * b[1] - a[1] * b[0] > 0.0 else v[::-1])
        opposite = np.roll(tri.edge_lengths, -1)  # side facing each vertex
        incenter = opposite @ tri.vertices / opposite.sum()
        h = compute_hstar(tri)
        assert_allclose(tri.edge_distances(incenter)[:, 0], h, rtol=1e-12)
        x0, y0, x1, y1 = tri.bbox
        pts = rng.uniform((x0, y0), (x1, y1), (2000, 2))
        pts = pts[tri.signed_boundary_distance(pts) > 0.0]
        assert tri.edge_distances(pts).max(axis=0).min() >= h


def test_hstar_sampling_oracle(rng):
    """Brute-force check of the pair-enumeration distance on one random
    polygon: densely sample both segments of every non-adjacent pair."""
    from mvcoords.audit import random_convex_polygon

    p = random_convex_polygon(rng)
    n = p.n
    ts = np.linspace(0.0, 1.0, 600)
    best = np.inf
    for i in range(n):
        a0, a1 = p.vertices[i], p.vertices[(i + 1) % n]
        pa = a0 + ts[:, None] * (a1 - a0)
        for j in range(i + 1, n):
            if j - i == 1 or j - i == n - 1:
                continue
            b0, b1 = p.vertices[j], p.vertices[(j + 1) % n]
            pb = b0 + ts[:, None] * (b1 - b0)
            d = np.hypot(*(pa[:, None, :] - pb[None, :, :]).transpose(2, 0, 1))
            best = min(best, d.min())
    assert compute_hstar(p) == pytest.approx(best / 2.0, rel=1e-4)


def hstar_pair_loop(p):
    """Half the smallest distance over non-adjacent closed edge pairs, each
    pair's distance the least of its four end point to segment distances."""
    def point_seg(q, s0, s1):
        d = s1 - s0
        tt = np.clip(np.dot(q - s0, d) / np.dot(d, d), 0.0, 1.0)
        return float(np.hypot(*(q - (s0 + tt * d))))

    v, n = p.vertices, p.n
    best = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            if j - i == 1 or j - i == n - 1:  # cyclic neighbors share a vertex
                continue
            a0, a1, b0, b1 = v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]
            best = min(best, point_seg(a0, b0, b1), point_seg(a1, b0, b1),
                       point_seg(b0, a0, a1), point_seg(b1, a0, a1))
    return 0.5 * best


def test_hstar_matches_pair_loop(polygon_suite):
    polys = [SQUARE, OCT8, HEXAGON] + list(polygon_suite)
    polys += [apex_pentagon(a) for a in (1.5, 1.1, 1.01, 1.001)]
    for p in polys:
        assert compute_hstar(p) == pytest.approx(hstar_pair_loop(p), rel=1e-14)


def test_hstar_bounded_by_half_min_edge(polygon_suite):
    # d_min is the all-pairs vertex distance, never above the shortest edge;
    # non-strict: equality happens whenever the shortest edge sits between
    # two right-or-wider corners (the unit square is the textbook case)
    for p in polygon_suite:
        gc = geometric_constants(p)
        assert gc.d_min == min_vertex_distance(p)
        assert gc.h_star <= 0.5 * gc.d_min * (1.0 + 1e-12)


# -------------------------------------------------------- geometric constants

def test_constants_square():
    gc = geometric_constants(SQUARE)
    assert gc.aspect_ratio == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)
    assert gc.beta_min == pytest.approx(np.pi / 2.0)
    assert gc.beta_max == pytest.approx(np.pi / 2.0)
    assert gc.d_min == pytest.approx(1.0)
    assert gc.diameter == pytest.approx(np.sqrt(2.0))


def test_constants_unit_diameter_square():
    p = normalize_to_unit_diameter(SQUARE)
    gc = geometric_constants(p)
    assert p.diameter == pytest.approx(1.0, abs=1e-15)
    assert gc.d_min == pytest.approx(1.0 / np.sqrt(2.0))
    assert gc.h_star == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-12)


def test_alpha_star_combines_angle_and_radius_terms():
    for apex in (1.5, 1.1, 1.01):
        gc = geometric_constants(apex_pentagon(apex))
        expected = max(np.pi - gc.beta_min / 2.0, 2.0 * np.arctan(gc.diameter / gc.h_star))
        assert gc.alpha_star == pytest.approx(expected, rel=1e-15)
        assert np.pi / 2.0 < gc.alpha_star < np.pi


def test_alpha_star_is_per_unit_diameter():
    """alpha* reads h* per unit diameter, so apex_pentagon(1.5) scaled by
    2^j keeps it bit for bit and scaled by 10^k within 1e-15, across the
    float range; it is the alpha* of the unit-diameter copy."""
    p = apex_pentagon(1.5)
    want = geometric_constants(p).alpha_star
    unit = geometric_constants(normalize_to_unit_diameter(p)).alpha_star
    assert unit == pytest.approx(want, rel=1e-15)
    for j in range(-1000, 1001, 25):
        assert geometric_constants(Polygon(np.ldexp(p.vertices, j))).alpha_star == want, j
    for k in range(-300, 301, 5):
        got = geometric_constants(Polygon(p.vertices * 10.0**k)).alpha_star
        assert got == pytest.approx(want, rel=1e-15), k


def test_constants_sane_on_suite(polygon_suite):
    for p in polygon_suite:
        gc = geometric_constants(p)
        assert gc.aspect_ratio >= 2.0
        assert 0.0 < gc.beta_min <= gc.beta_max <= np.pi
        assert np.pi / 2.0 < gc.alpha_star < np.pi
        assert 0.0 < gc.h_star < gc.diameter


# ----------------------------------------------------------- per-point values

def test_point_geometry_square_center():
    g = point_geometry_batch(SQUARE, [(0.5, 0.5)])
    assert_allclose(g.r, np.sqrt(2.0) / 2.0, rtol=1e-15)
    assert_allclose(g.alpha, np.pi / 2.0, rtol=1e-15)
    assert_allclose(g.t, 1.0, rtol=1e-14)


def test_point_geometry_triangle():
    tri = Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    g = point_geometry_batch(tri, [(0.25, 0.25)])
    assert_allclose(g.r[:, 0], [np.sqrt(2.0) / 4.0, 0.7905694150, 0.7905694150],
                    rtol=1e-9)
    assert g.alpha.sum() == pytest.approx(2.0 * np.pi, abs=1e-12)


def test_angle_sum_random_points(polygon_suite, rng):
    from mvcoords.audit import sample_interior

    for p in polygon_suite[:4]:
        g = point_geometry_batch(p, sample_interior(p, rng, 200))
        assert np.all(np.abs(g.alpha.sum(axis=0) - 2.0 * np.pi) < 1e-12)
        assert np.all(g.alpha > 0) and np.all(g.alpha < np.pi)
        assert np.all(g.r > 0)


def test_point_geometry_fields_computed_on_first_use():
    g = point_geometry_batch(SQUARE, [(0.5, 0.5), (0.25, 0.75)])
    assert not {"r", "cross", "dot", "alpha", "t"} & set(vars(g))
    t = g.t
    assert g.t is t
    # the tangents read r, cross and dot; nothing else is kept
    assert {"r", "cross", "dot", "t"} <= set(vars(g))
    assert not {"alpha", "grad_r", "grad_alpha", "grad_t"} & set(vars(g))


def test_point_geometry_gradients_match_fd():
    p = apex_pentagon(1.5)
    x = np.array([0.3, 0.4])
    h = 1e-7
    stencil = x + h * np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    g = point_geometry_batch(p, stencil)
    assert g.scale == 0.5  # diameter 2 sqrt(2): the frame halves lengths
    for dim in range(2):
        plus, minus = 1 + 2 * dim, 2 + 2 * dim
        for name in ("r", "alpha", "t"):
            f = getattr(g, name)
            # planes differenced over caller steps, in frame coordinates
            fd = (f[:, plus] - f[:, minus]) / (2 * h) / g.scale
            assert_allclose(getattr(g, f"grad_{name}")[dim, :, 0], fd, atol=2e-7)


# ------------------------------------------------------------ ball intersect

def ball_hits(p, x, h):
    """Closed edges the closed ball B(x, h) touches, as the audit counts them."""
    return np.flatnonzero(p.edge_distances(x)[:, 0] <= h)


def test_ball_misses_all_edges_at_center():
    assert ball_hits(SQUARE, (0.5, 0.5), 0.4).size == 0


def test_ball_touches_corner_pair():
    hits = ball_hits(SQUARE, (0.05, 0.05), 0.1)
    assert hits.tolist() == [0, 3]  # bottom and left, adjacent at the corner


def test_ball_above_separation_radius_hits_three_edges():
    # at h = 0.5 (the square's full separation radius) a mid-bottom point
    # reaches the bottom edge and both side edges
    hits = ball_hits(SQUARE, (0.5, 0.05), 0.5)
    assert hits.size >= 3


# ------------------------------------------------------- normalization + IO

def test_normalize_square():
    p = normalize_to_unit_diameter(SQUARE)
    assert p.diameter == pytest.approx(1.0, abs=1e-14)
    assert p.edge_lengths[0] == pytest.approx(1.0 / np.sqrt(2.0))
    assert_allclose(p.vertices * np.sqrt(2.0), SQUARE.vertices, atol=1e-15)


def test_normalize_identity_when_already_unit():
    p = normalize_to_unit_diameter(SQUARE)
    assert normalize_to_unit_diameter(p) is p


def test_normalize_pentagon_scale():
    pent = apex_pentagon(1.5)
    p = normalize_to_unit_diameter(pent)
    assert_allclose(p.vertices, pent.vertices / (2.0 * np.sqrt(2.0)), rtol=1e-14)


def test_json_round_trip(tmp_path):
    path = tmp_path / "oct8.json"
    save_polygon(OCT8, path)
    s = path.read_text()
    q = polygon_from_json(s)
    assert_allclose(q.vertices, OCT8.vertices, rtol=0, atol=0)
    # the wire format is a single "vertices" key
    assert set(json.loads(s)) == {"vertices"}


def test_json_accepts_clockwise():
    s = json.dumps({"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]})
    with pytest.warns(WrongOrientation):
        q = polygon_from_json(s)
    assert q.area > 0


MALFORMED_JSON = [
    ('{"verts": [[0, 0], [1, 0], [0, 1]]}', '"vertices"'),
    ("[[0, 0], [1, 0], [0, 1]]", '"vertices"'),
    ('{"vertices": 3}', "at least 3 vertices"),
    ('{"vertices": [[0, 0], [1]]}', "vertices are not an array of numbers"),
    ('{"vertices": "abc"}', "vertices are not an array of numbers"),
    ('{"vertices": [[0, 0], [1, 0], [1e400, 1]]}', "vertices must be finite"),
]


@pytest.mark.parametrize(("text", "named"), [pytest.param(*case, id=case[0]) for case in MALFORMED_JSON])
def test_json_without_vertices_key_is_a_polygon_error(text, named):
    """A document without a vertex list, or whose vertices are not an
    (n, 2) array of finite numbers, is a PolygonError naming the fault."""
    with pytest.raises(PolygonError, match=named):
        polygon_from_json(text)


def test_file_round_trip(tmp_path):
    path = tmp_path / "pent.json"
    p = apex_pentagon(1.05)
    save_polygon(p, path)
    q = load_polygon(path)
    assert_allclose(q.vertices, p.vertices, rtol=0, atol=0)


# ---------------------------------------------------------------- frame table
# Polygon keeps the edges, lengths, turn crosses and twice-area that its
# validation computes in the frame, for the stored counterclockwise loop.
# The references below compute each quantity read from that table directly
# from the stored vertices. A table kept for the input loop of a clockwise
# polygon breaks the orientation tests; a wrong index shift breaks the
# references.

def _frame_cases():
    """(loop, scale) cases at 2^j: random polygons, some with a vertex
    inserted mid-edge (an interior angle of pi, where the inradius merges
    collinear edges), and random triangles."""
    rng = np.random.default_rng(2020)
    loops = [random_convex_polygon(rng).vertices for _ in range(12)]
    for loop in loops[:4]:
        k = int(rng.integers(len(loop)))
        loops.append(np.insert(loop, k + 1, 0.5 * (loop[k] + loop[(k + 1) % len(loop)]), axis=0))
    for _ in range(8):
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 3))
        loops.append(rng.uniform(-2.0, 2.0, 2) + np.column_stack([np.cos(t), np.sin(t)]))
    return [pytest.param(loop, 2.0**j, id=f"loop{i}-2^{j}")
            for i, loop in enumerate(loops) for j in (-600, 0, 600)]


FRAME_CASES = _frame_cases()


def _twice_area_reference(u):
    d = u[1:] - u[0]
    return float(np.sum(d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]))


def _interior_points(p, seed):
    """Convex combinations of the vertices, away from the boundary."""
    w = np.random.default_rng(seed).dirichlet(np.full(p.n, 2.0), 40)
    return w @ p.vertices


def _wachspress_reference(p, X):
    g = point_geometry_batch(p, X)
    area = 0.5 * g.cross
    area_prev = np.roll(area, 1, axis=0)
    e = p.edge_vectors * g.scale
    e_prev = np.roll(e, 1, axis=0)
    w = 0.5 * (e_prev[:, 0] * e[:, 1] - e_prev[:, 1] * e[:, 0])[:, None] / (area_prev * area)
    ga = (0.5 * _rot_ccw(e)).T[:, :, None]
    return _normalized(w, -w * (ga / area + np.roll(ga, 1, axis=1) / area_prev), g.scale)


def _edge_limit_reference(p, X):
    lam = np.zeros((p.n, len(X)))
    k = np.argmin(p.edge_distances(X), axis=0)
    v, e = p.vertices[k] * p.scale, p.edge_vectors[k] * p.scale
    t = np.clip(np.sum((X * p.scale - v) * e, axis=1) / np.sum(e * e, axis=1), 0.0, 1.0)
    lam[k, np.arange(len(X))] = 1.0 - t
    lam[(k + 1) % p.n, np.arange(len(X))] += t
    return lam


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.parametrize("loop, s", FRAME_CASES)
def test_clockwise_input_matches_counterclockwise_bit_for_bit(loop, s):
    """The table of a clockwise input is the table of the reversed loop, so
    every quantity read from it is that of the counterclockwise input."""
    ccw = Polygon(s * loop)
    with pytest.warns(WrongOrientation):
        cw = Polygon(s * loop[::-1])
    for name in ("vertices", "edge_vectors", "edge_lengths", "edge_lines", "area",
                 "interior_angles", "inradius", "diameter", "scale"):
        a, b = getattr(ccw, name), getattr(cw, name)
        assert all(map(_same, a, b)) if name == "edge_lines" else _same(a, b), name
    assert min_vertex_distance(cw) == min_vertex_distance(ccw)
    assert compute_hstar(cw) == compute_hstar(ccw)
    assert geometric_constants(cw) == geometric_constants(ccw)
    X = _interior_points(ccw, 0)
    flat = np.pi - ccw.interior_angles.max() < 1e-9  # no Wachspress coordinates
    for kind in ("mvc",) if flat else ("mvc", "wachspress"):
        a, b = evaluate(ccw, X, kind, True), evaluate(cw, X, kind, True)
        assert (a.status == OK).all()
        assert _same(a.values, b.values) and _same(a.gradients, b.gradients), kind


@pytest.mark.parametrize("loop, s", FRAME_CASES)
@pytest.mark.parametrize("clockwise", [False, True])
def test_frame_table_readers_match_their_reference_formulas(loop, s, clockwise):
    """Every quantity read from the frame table except the inradius has the
    bits of the formula it replaced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WrongOrientation)
        p = Polygon(s * (loop[::-1] if clockwise else loop))
    v, scale = p.vertices, p.scale
    e = np.roll(v, -1, axis=0) - v
    lengths = np.hypot(e[:, 0], e[:, 1])
    assert _same(p.edge_vectors, e) and _same(p.edge_lengths, lengths)
    assert _same(p.edge_lines[0], _rot_ccw(e) / lengths[:, None])
    u = v * scale
    assert p.area == 0.5 * _twice_area_reference(u) / scale / scale
    a, b = np.roll(u, 1, axis=0) - u, np.roll(u, -1, axis=0) - u
    cross = np.maximum(b[:, 0] * a[:, 1] - b[:, 1] * a[:, 0], 0.0)
    assert _same(p.interior_angles, np.arctan2(cross, np.sum(a * b, axis=1)))
    i, j = np.triu_indices(p.n, k=1)
    assert min_vertex_distance(p) == float(np.min(np.hypot(*(v[i] - v[j]).T)))
    if p.n == 3:  # h* is the inradius, 2A / P with 2A exact and rounded once
        a, b, c = ([Fraction(t) for t in q] for q in u.tolist())
        area2 = float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        assert compute_hstar(p) == area2 / float(lengths.sum() * scale) / scale
    for loop in (u, u[::-1]):  # fem's orientation test, by the sign of the same twice-area
        x, y = loop.T
        assert (_frame_table(loop)[3] < 0.0) == (x @ np.roll(y, -1) < np.roll(x, -1) @ y)

    X = np.concatenate([_interior_points(p, 1), v + 0.5 * e, v - 0.1 * np.roll(e, 1, axis=0)])
    fe = e * scale
    dx, dy = X[:, 0] - v[:, 0, None], X[:, 1] - v[:, 1, None]
    sd = np.min((fe[:, 0, None] * dy - fe[:, 1, None] * dx) / (lengths * scale)[:, None], axis=0)
    assert _same(p.signed_boundary_distance(X), sd)
    ex, ey, fx, fy = e[:, 0, None], e[:, 1, None], fe[:, 0, None], fe[:, 1, None]
    tt = np.clip((dx * fx + dy * fy) / (ex * fx + ey * fy), 0.0, 1.0)
    dist = np.hypot(X[:, 0] - (v[:, 0, None] + tt * ex), X[:, 1] - (v[:, 1, None] + tt * ey))
    assert _same(p.edge_distances(X), dist)
    assert _same(_edge_limit_values(p, X), _edge_limit_reference(p, X))
    if np.pi - p.interior_angles.max() < 1e-9:
        return  # no Wachspress coordinates
    g = point_geometry_batch(p, _interior_points(p, 2))
    lam, glam = interior_coordinates(p, g, "wachspress", True)
    want, gwant = _wachspress_reference(p, _interior_points(p, 2))
    assert _same(lam, want) and _same(glam, gwant)


@pytest.mark.parametrize("loop, s", FRAME_CASES)
def test_signed_boundary_distance_keeps_its_bits_near_the_float_limit(loop, s):
    """Points past 2^1020, measured at 1/16 scale, read the bits of the
    plain formula wherever none of its products overflowed."""
    p = Polygon(s * loop)
    far = np.array([(2.0**1019, -2.0**1019), (3e307, -3e307), (0.0, -5e307),
                    (1.5e308, 0.0), (0.0, -1.7e308), (-1e308, 1e308)])
    X = np.concatenate([_interior_points(p, 2), p.vertices * 3.0, p.centroid + far])
    v, fe, lengths = p.vertices, p.edge_vectors * p.scale, p.edge_lengths * p.scale
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = X[:, 0] - v[:, 0, None], X[:, 1] - v[:, 1, None]
        cross = fe[:, 0, None] * dy - fe[:, 1, None] * dx
        sd = np.min(cross / lengths[:, None], axis=0)
    plain = np.isfinite(cross).all(axis=0)
    assert plain[-5:-3].all()  # past 2^1020, but no product overflows
    assert np.array_equal(p.signed_boundary_distance(X)[plain], sd[plain])
