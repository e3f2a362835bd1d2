"""Polygon representation, quality constants, and per-point geometry."""

import json
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from mvcoords.errors import DegenerateEdge, NonConvex, WrongOrientation
from mvcoords.geometry import (
    Polygon,
    _inscribed_circle,
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
    with pytest.raises(ValueError):
        Polygon([(0.0, 0.0), (1.0, 0.0)])


def test_clockwise_input_reversed_with_warning():
    cw = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
    with pytest.warns(WrongOrientation):
        p = Polygon(cw)
    # stored loop is counterclockwise afterwards
    assert p.area > 0
    assert_allclose(p.vertices[0], (1.0, 0.0))


def test_nonfinite_vertex_rejected():
    with pytest.raises(ValueError):
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


def edge_line_depth(p: Polygon, x) -> float:
    """Smallest signed distance from x to the edge lines."""
    normal, offset = p.edge_lines
    return float(np.min(normal @ np.asarray(x) - offset))


def test_inradius_is_the_edge_line_distance_at_its_centre(polygon_suite):
    for p in [SQUARE, OCT8, TRI_345, HEXAGON, apex_pentagon(1.001), *polygon_suite]:
        centre, r = _inscribed_circle(p)
        assert r == p.inradius
        assert edge_line_depth(p, centre) == pytest.approx(r, rel=1e-12)


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


def test_min_vertex_distance():
    assert min_vertex_distance(SQUARE) == pytest.approx(1.0)
    # apex corners are the closest pair of the flat pentagon
    assert min_vertex_distance(apex_pentagon(1.05)) == pytest.approx(
        np.sqrt(1.0025), rel=1e-12
    )


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
        expected = max(np.pi - gc.beta_min / 2.0, 2.0 * np.arctan(1.0 / gc.h_star))
        assert gc.alpha_star == pytest.approx(expected, rel=1e-15)
        assert np.pi / 2.0 < gc.alpha_star < np.pi


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
    for dim in range(2):
        plus, minus = 1 + 2 * dim, 2 + 2 * dim
        for name in ("r", "alpha", "t"):
            f = getattr(g, name)
            fd = (f[:, plus] - f[:, minus]) / (2 * h)
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


def test_file_round_trip(tmp_path):
    path = tmp_path / "pent.json"
    p = apex_pentagon(1.05)
    save_polygon(p, path)
    q = load_polygon(path)
    assert_allclose(q.vertices, p.vertices, rtol=0, atol=0)
