"""Coordinate values, analytic gradients, and the sup-gradient scanner."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mvcoords import coords
from mvcoords.audit import random_convex_polygon, sample_interior
from mvcoords.coords import (
    BAND,
    NONFINITE,
    OK,
    OUTSIDE,
    STATUS_NAMES,
    _mvc_weights,
    _normalized,
    _scan_grid,
    coordinate_gradients,
    coordinate_values,
    evaluate,
    fd_gradient,
    interior_coordinates,
    mvc_gradients,
    mvc_values,
    sup_gradient_scan,
    wachspress_gradients,
    wachspress_values,
)
from mvcoords.errors import (
    CollinearVertices,
    EvaluationError,
    OutsidePolygon,
    PointTooCloseToBoundary,
    StepTooLarge,
)
from mvcoords.geometry import (
    Polygon,
    _rot_ccw,
    apex_pentagon,
    geometric_constants,
    point_geometry_batch,
)

SQUARE = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
TRI = Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
OCT8 = Polygon(
    [
        (0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 0.5),
        (1.0, 1.0), (0.5, 1.0), (0.0, 1.0), (0.0, 0.5),
    ]
)
EPS = np.finfo(float).eps


def areal(x):
    """Areal coordinates of TRI: the reference-triangle hat functions."""
    x = np.asarray(x, dtype=float)
    return np.array([1.0 - x[0] - x[1], x[0], x[1]])


# -------------------------------------------------------------------- values

def test_square_center_quarter():
    assert_allclose(mvc_values(SQUARE, (0.5, 0.5)), 0.25, rtol=1e-14)
    assert_allclose(wachspress_values(SQUARE, (0.5, 0.5)), 0.25, rtol=1e-14)


@pytest.mark.parametrize("n", [3, 5, 6, 9])
def test_regular_ngon_center(n):
    ang = 2.0 * np.pi * np.arange(n) / n
    p = Polygon(np.column_stack([np.cos(ang), np.sin(ang)]))
    assert_allclose(mvc_values(p, (0.0, 0.0)), 1.0 / n, rtol=1e-13)


def test_triangle_matches_areal_values():
    x = (0.25, 0.25)
    assert_allclose(mvc_values(TRI, x), [0.5, 0.25, 0.25], atol=1e-14)
    assert_allclose(wachspress_values(TRI, x), areal(x), atol=1e-14)


def mvc_weights(p, points):
    """Unnormalized mean value weights (t_{i-1} + t_i) / r_i, as an (n, m)
    vertex-major plane."""
    return _mvc_weights(point_geometry_batch(p, points))


def test_mvc_weights_square_center():
    w = mvc_weights(SQUARE, [(0.5, 0.5)])
    assert_allclose(w, 2.0 * np.sqrt(2.0), rtol=1e-14)


def test_mvc_weight_sum_lower_bound(polygon_suite, rng):
    # unit-diameter polygons keep the weight sum above 2*pi, which is the
    # reason the normalizing denominator never degenerates
    for p in polygon_suite[:5]:
        w = mvc_weights(p, sample_interior(p, rng, 50))
        assert np.all(w > 0)
        assert np.all(w.sum(axis=0) >= 2.0 * np.pi - 1e-9)


def test_batch_matches_single(rng):
    pts = sample_interior(SQUARE, rng, 40)
    batch = mvc_values(SQUARE, pts)
    for k in range(40):
        assert_allclose(batch[k], mvc_values(SQUARE, pts[k]), rtol=1e-15)


def test_outside_point_raises():
    with pytest.raises(OutsidePolygon):
        mvc_values(SQUARE, (1.5, 0.5))
    with pytest.raises(OutsidePolygon):
        wachspress_values(SQUARE, [(0.5, 0.5), (-0.2, 0.4)])


def test_wachspress_rejects_flat_vertex():
    with pytest.raises(CollinearVertices):
        wachspress_values(OCT8, (0.5, 0.5))
    with pytest.raises(CollinearVertices):
        wachspress_gradients(OCT8, (0.5, 0.5))
    # mean value coordinates handle the same polygon fine
    lam = mvc_values(OCT8, (0.5, 0.5))
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "kind, values, gradients",
    [("mvc", mvc_values, mvc_gradients),
     ("wachspress", wachspress_values, wachspress_gradients)],
)
def test_kernel_on_shared_geometry_matches_public_functions(
    polygon_suite, rng, kind, values, gradients
):
    """One point geometry serves a values call and then a gradients call,
    bit-equal, once out of the (n, m) plane layout, to the public functions
    that build their own."""
    for p in polygon_suite[:4]:
        pts = sample_interior(p, rng, 200, margin=1e-6)
        g = point_geometry_batch(p, pts)
        lam, _ = interior_coordinates(p, g, kind, gradients=False)
        lam_g, glam = interior_coordinates(p, g, kind, gradients=True)
        ref = gradients(p, pts)
        assert np.array_equal(lam.T, values(p, pts))
        assert np.array_equal(lam_g.T, ref.values)
        assert np.array_equal(glam.transpose(2, 1, 0), ref.gradients)


def _point_major_reference(p, X, kind):
    """The coordinate kernels step for step in the point-major layout, values
    (m, n) and gradients (m, n, 2), at strictly interior points X."""
    d = X[:, None, :] - p.vertices[None, :, :]
    d_next = np.roll(d, -1, axis=1)
    r = np.hypot(d[:, :, 0], d[:, :, 1])
    r_next = np.roll(r, -1, axis=1)
    cross = d[:, :, 0] * d_next[:, :, 1] - d[:, :, 1] * d_next[:, :, 0]
    if kind == "mvc":
        dot = np.sum(d * d_next, axis=2)
        rr = r * r_next
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(dot >= 0.0, cross / (rr + dot), (rr - dot) / cross)
        grad_alpha = (np.stack([d[:, :, 1], -d[:, :, 0]], axis=2) / (r * r)[:, :, None]
                      + np.stack([-d_next[:, :, 1], d_next[:, :, 0]], axis=2)
                      / (r_next * r_next)[:, :, None])
        grad_t = grad_alpha * (0.5 * (1.0 + t * t))[:, :, None]
        w = (np.roll(t, 1, axis=1) + t) / r
        gw = ((np.roll(grad_t, 1, axis=1) + grad_t) / r[:, :, None]
              - (w / r)[:, :, None] * (d / r[:, :, None]))
    else:
        s = np.ldexp(1.0, -2 * np.frexp(p.diameter)[1])
        area = 0.5 * s * cross
        area_prev = np.roll(area, 1, axis=1)
        e = p.edge_vectors
        e_prev = np.roll(e, 1, axis=0)
        corner = 0.5 * s * (e_prev[:, 0] * e[:, 1] - e_prev[:, 1] * e[:, 0])
        w = corner[None, :] / (area_prev * area)
        ga = 0.5 * s * _rot_ccw(e)
        ratio = ga[None] / area[:, :, None] + np.roll(ga, 1, axis=0)[None] / area_prev[:, :, None]
        gw = -w[:, :, None] * ratio
    total = np.sum(w, axis=1, keepdims=True)
    lam = w / total
    gtotal = np.sum(gw, axis=1, keepdims=True)
    return lam, (gw - lam[:, :, None] * gtotal) / total[:, :, None]


@st.composite
def ellipse_polygons(draw):
    """Strictly convex polygons of 3..10 vertices on a random ellipse."""
    n = draw(st.integers(3, 10))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    ang = draw(st.floats(0.0, 2.0 * np.pi)) + 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    aspect = draw(st.floats(0.2, 1.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    shift = np.array(draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))))
    return Polygon(scale * (np.column_stack([np.cos(ang), aspect * np.sin(ang)]) + shift))


@given(p=ellipse_polygons(), seed=st.integers(0, 2**32 - 1))
def test_plane_kernels_match_point_major_reference(p, seed):
    """The public (m, n) and (m, n, 2) outputs of both kinds equal the
    point-major reference bit for bit below 8 vertices, where a sum over
    the vertex rows adds in the same order as a sum along a short last
    axis; from 8 on numpy's pairwise order differs, within 4 n eps of each
    point's largest entry."""
    rng = np.random.default_rng(seed)
    X = rng.dirichlet(np.ones(p.n), size=64) @ p.vertices
    X = X[p.signed_boundary_distance(X) > 10.0 * p.eps_interior]
    tol = 4.0 * p.n * EPS
    for kind, values, gradients in (("mvc", mvc_values, mvc_gradients),
                                    ("wachspress", wachspress_values, wachspress_gradients)):
        lam, glam = _point_major_reference(p, X, kind)
        out = gradients(p, X)
        for got, want in ((values(p, X), lam), (out.values, lam), (out.gradients, glam)):
            assert got.shape == want.shape and got.flags.c_contiguous
            if p.n < 8:
                assert np.array_equal(got, want)
            else:
                axes = tuple(range(1, want.ndim))
                scale = np.abs(want).max(axis=axes)
                assert np.all(np.abs(got - want).max(axis=axes) <= tol * scale)


# --------------------------------------------------------- boundary behavior

def test_edge_point_is_linear():
    # on the bottom edge at parameter s the only nonzero values are the
    # edge's endpoints
    lam = mvc_values(SQUARE, (0.3, 0.0))
    assert_allclose(lam, [0.7, 0.3, 0.0, 0.0], atol=1e-12)


def test_vertex_point_is_delta():
    lam = mvc_values(SQUARE, (0.0, 0.0))
    assert_allclose(lam, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_edge_limit_from_inside(polygon_suite):
    """Boundary limit plus edge linearity: approaching edge parameter s,
    lambda -> (1-s, s) on the edge endpoints within 1e-5 at offset 1e-7."""
    for p in polygon_suite[:4]:
        n = p.n
        inward = p.centroid - p.vertices  # points into the polygon
        for i in (0, n // 2):
            s = 0.3
            a, b = p.vertices[i], p.vertices[(i + 1) % n]
            probe = (1 - s) * a + s * b
            target = np.zeros(n)
            target[i], target[(i + 1) % n] = 1 - s, s
            push = (1 - s) * inward[i] + s * inward[(i + 1) % n]
            lam = mvc_values(p, probe + 1e-7 * push / np.linalg.norm(push))
            assert_allclose(lam, target, atol=1e-5)


def test_vertex_limit_from_inside(polygon_suite):
    for p in polygon_suite[:4]:
        for i in range(p.n):
            d = p.centroid - p.vertices[i]
            x = p.vertices[i] + 1e-7 * d / np.linalg.norm(d)
            for vals in (mvc_values(p, x), wachspress_values(p, x)):
                target = np.zeros(p.n)
                target[i] = 1.0
                assert_allclose(vals, target, atol=1e-5)


def test_gradients_require_strict_interior():
    with pytest.raises(PointTooCloseToBoundary):
        mvc_gradients(SQUARE, (0.3, 0.0))
    with pytest.raises(PointTooCloseToBoundary):
        mvc_gradients(SQUARE, (0.0, 0.0))
    with pytest.raises(OutsidePolygon):
        mvc_gradients(SQUARE, (1.5, 0.5))


POISONED = (0.25, 0.75)


@pytest.fixture
def poisoned_square_weights(monkeypatch):
    """Mean value weights on SQUARE that come out NaN at the point
    POISONED, wherever it sits in a batch."""
    real = coords._mvc_weights

    def poisoned(g):
        w = real(g)
        w[:, g.r[0] == np.hypot(*POISONED)] = np.nan  # vertex 0 is the origin
        return w

    monkeypatch.setattr(coords, "_mvc_weights", poisoned)


def test_mixed_batch_statuses_match_single_point_errors(poisoned_square_weights):
    """One classified evaluation gives each point the status whose error a
    call on that point alone raises; the batch calls raise outside, then
    band, then non-finite, each naming its first offending index."""
    pts = np.array([(0.5, 0.5), (0.3, 0.0), POISONED, (2.0, 2.0),
                    (0.6, 0.4), (np.nan, 0.5), (0.0, 0.7), (-1.0, 0.5)])
    ev = evaluate(SQUARE, pts, "mvc", gradients=True)
    assert ev.status.tolist() == [OK, BAND, NONFINITE, OUTSIDE, OK, NONFINITE, BAND, OUTSIDE]
    for x, status in zip(pts, ev.status):
        for call in (mvc_values, mvc_gradients):
            if status == OK or (status == BAND and call is mvc_values):
                call(SQUARE, x)
                continue
            with pytest.raises(EvaluationError) as exc:
                call(SQUARE, x)
            assert type(exc.value).__name__ == STATUS_NAMES[status]

    with pytest.raises(OutsidePolygon, match=r"point index 3\b"):
        mvc_values(SQUARE, pts)
    with pytest.raises(OutsidePolygon, match=r"point index 3\b"):
        mvc_gradients(SQUARE, pts)
    inside = pts[ev.status != OUTSIDE]
    with pytest.raises(PointTooCloseToBoundary, match=r"point index 1\b"):
        mvc_gradients(SQUARE, inside)
    with pytest.raises(EvaluationError, match=r"point index 2\b") as exc:
        mvc_values(SQUARE, inside)
    assert type(exc.value) is EvaluationError
    with pytest.raises(EvaluationError, match=r"point index 1\b") as exc:
        mvc_gradients(SQUARE, pts[(ev.status == OK) | (ev.status == NONFINITE)])
    assert type(exc.value) is EvaluationError
    with pytest.raises(StepTooLarge, match=r"point index 1\b"):
        fd_gradient(SQUARE, [(0.5, 0.5), (0.5, 5e-7)])
    with pytest.raises(OutsidePolygon, match=r"point index 1\b"):
        fd_gradient(SQUARE, [(0.5, 0.5), (3.0, 0.5)])


def test_non_finite_edge_limit_value_is_nonfinite(monkeypatch):
    """A band point whose edge-limit values come out NaN gets the status
    NONFINITE, and a values call raises EvaluationError naming it."""
    real = coords._edge_limit_values
    poisoned_point = (0.0, 0.6)

    def poisoned(p, X):
        lam = real(p, X)
        lam[:, (X == poisoned_point).all(axis=1)] = np.nan
        return lam

    monkeypatch.setattr(coords, "_edge_limit_values", poisoned)
    pts = np.array([(0.5, 0.5), (0.3, 0.0), poisoned_point, (0.6, 0.4)])
    for gradients in (False, True):
        ev = evaluate(SQUARE, pts, "mvc", gradients)
        assert ev.status.tolist() == [OK, BAND, NONFINITE, OK]
    with pytest.raises(EvaluationError, match=r"point index 2\b") as exc:
        mvc_values(SQUARE, pts)
    assert type(exc.value) is EvaluationError
    assert_allclose(mvc_values(SQUARE, pts[:2])[1], [0.7, 0.3, 0.0, 0.0], atol=1e-12)


def test_infinite_points_are_outside_and_nan_points_nonfinite():
    """A point with an infinite coordinate and no NaN is OUTSIDE, with no
    0 * inf warning on the way; a NaN point stays NONFINITE."""
    pts = [(np.inf, 0.2), (-np.inf, 0.5), (0.5, np.inf), (np.nan, 0.5), (0.5, 0.5)]
    for gradients in (False, True):
        ev = evaluate(SQUARE, pts, "mvc", gradients)
        assert ev.status.tolist() == [OUTSIDE, OUTSIDE, OUTSIDE, NONFINITE, OK]
    for x, error in zip(pts[:4], [OutsidePolygon] * 3 + [EvaluationError]):
        for call in (mvc_values, mvc_gradients):
            with pytest.raises(EvaluationError) as exc:
                call(SQUARE, x)
            assert type(exc.value) is error


@pytest.mark.parametrize("call", [
    mvc_values, mvc_gradients, wachspress_values, wachspress_gradients, fd_gradient,
])
def test_non_finite_points_raise_typed_errors_without_warnings(call):
    """An infinite point raises OutsidePolygon and a NaN point a plain
    EvaluationError, from every point call including the finite-difference
    one, and neither sets off a floating-point warning."""
    for x, error in [((np.inf, 0.2), OutsidePolygon), ((np.nan, 0.2), EvaluationError)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as exc:
                call(SQUARE, x)
        assert type(exc.value) is error


def test_kind_errors_come_before_point_statuses():
    """An unknown kind, or Wachspress on a polygon with a flat vertex,
    raises whatever the points are."""
    outside = [(5.0, 5.0)]
    with pytest.raises(ValueError, match="unknown coordinate kind"):
        evaluate(SQUARE, outside, "bogus", gradients=False)
    with pytest.raises(ValueError, match="unknown coordinate kind"):
        coordinate_values(SQUARE, outside, "bogus")
    with pytest.raises(CollinearVertices):
        wachspress_values(OCT8, outside)
    with pytest.raises(CollinearVertices):
        fd_gradient(OCT8, outside, kind="wachspress")


# ------------------------------------------------------------------ gradients

def test_triangle_gradients_are_constant_areal():
    # hat-function gradients on the unit right triangle
    expected = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    for x in [(0.25, 0.25), (0.1, 0.7), (0.45, 0.05)]:
        for fn in (mvc_gradients, wachspress_gradients):
            out = fn(TRI, x)
            assert_allclose(out.gradients, expected, atol=1e-10)
            assert_allclose(out.values, areal(x), atol=1e-12)


def test_gradient_identities(polygon_suite, rng):
    for p in polygon_suite[:5]:
        pts = sample_interior(p, rng, 100, margin=1e-3 * p.diameter)
        for fn in (mvc_gradients, wachspress_gradients):
            out = fn(p, pts)
            assert np.abs(out.gradients.sum(axis=1)).max() < 1e-9
            jac = np.einsum("ia,mib->mab", p.vertices, out.gradients)
            assert np.abs(jac - np.eye(2)).max() < 1e-9


@pytest.mark.parametrize("y", [1e-8, 5e-9, 3e-9, 2e-9])
def test_gradients_reach_the_edge_limit(y):
    """At (0.5, y) the subtended angle of the bottom edge is pi - O(y);
    the gradient stays within 1e-6 of its edge limit down to y = 2e-9,
    just past the 1e-9 * sqrt(2) boundary band."""
    g = mvc_gradients(SQUARE, (0.5, y)).gradients
    assert_allclose(g[0], [-1.0, -0.5], rtol=0, atol=1e-6)


@given(
    seed=st.integers(0, 2**32 - 1),
    edge=st.integers(0, 9),
    along=st.floats(0.05, 0.95),
    standoff=st.floats(1.5, 1e4),
)
def test_gradient_identities_near_edges(seed, edge, along, standoff):
    """Grad-sum zero and linear precision hold at a point standoff *
    eps_interior inside an edge of a random unit-diameter polygon, to
    roundoff amplified by no more than diameter / distance."""
    p = random_convex_polygon(np.random.default_rng(seed))
    d = standoff * p.eps_interior
    x = _next_to_edge(p, edge, along, d)
    g = mvc_gradients(p, x).gradients
    assert np.all(np.isfinite(g))
    tol = 16.0 * EPS / d
    assert np.abs(g.sum(axis=0)).max() <= tol
    jac = p.vertices.T @ g
    assert np.abs(jac - np.eye(2)).max() <= tol * p.diameter


def _next_to_edge(p, edge, along, d):
    """The point ``d`` inside edge ``edge % n``, at ``along`` of its length."""
    k = edge % p.n
    return p.vertices[k] + along * p.edge_vectors[k] + d * p.edge_lines[0][k]


def _check_mvc_next_to_edge(p, x):
    """Partition of unity, linear precision, the gradient identities and
    agreement with ``fd_gradient`` at one interior point x, at tolerances
    taken from the rounding error terms and the distance d to the boundary.

    - Values: the n weights are positive and cancellation-free, so the
      normalization leaves |sum(lambda) - 1| within 2n + 1 roundings, and
      each coordinate carries O(n eps) absolute error however close x is to
      the boundary; the linear-precision sum adds n products of vertices of
      size up to diam + max|v|.
    - Gradients: the quotient rule runs through terms of size 1/d, so the
      identities hold to 16 eps / d (per unit diameter for the Jacobian),
      as next to the edges of the random polygons.
    - FD: a central difference of step h is exactly the mean of the
      partial derivative over its stencil segment, so it is within the
      derivative's variation between x and the stencil ends (when the step
      resolves the coordinates), plus value roundoff n eps / h and the
      analytic gradient's own 16 eps / d.
    """
    n, diam = p.n, p.diameter
    d = float(p.signed_boundary_distance(x)[0])
    lam = mvc_values(p, x)
    assert abs(lam.sum() - 1.0) <= (n + 0.5) * EPS
    size = diam + np.abs(p.vertices).max()
    assert np.abs(lam @ p.vertices - x).max() <= n * EPS * size

    g = mvc_gradients(p, x).gradients
    assert np.all(np.isfinite(g))
    assert np.abs(g.sum(axis=0)).max() <= 16.0 * EPS / d
    assert np.abs(p.vertices.T @ g - np.eye(2)).max() <= 16.0 * EPS * diam / d

    h = 1e-6 * diam  # the fd_gradient step
    if d <= h + p.eps_interior:
        return
    fd = fd_gradient(p, x)
    for axis in range(2):
        shift = np.eye(2)[axis] * h
        ends = mvc_gradients(p, np.stack([x - shift, x + shift])).gradients[:, :, axis]
        variation = np.abs(ends - g[:, axis]).max(axis=0)
        tol = variation + n * EPS / h + 16.0 * EPS / d
        assert np.all(np.abs(fd[:, axis] - g[:, axis]) <= tol)


@given(
    seed=st.integers(0, 2**32 - 1),
    vertex=st.integers(0, 9),
    chord_at=st.floats(0.2, 0.8),
    flatness=st.floats(1.0, 12.0),
    edge=st.integers(-1, 1),
    along=st.floats(0.05, 0.95),
    standoff=st.floats(0.2, 8.0),
)
def test_mvc_next_to_a_near_flat_vertex(seed, vertex, chord_at, flatness, edge, along, standoff):
    """A vertex of a random polygon is pulled to 10**-flatness of its height
    above its neighbours' chord, toward a point of that chord (the loop
    stays convex), and x sits 10**standoff * eps_interior inside one of
    the edges at or after it."""
    p = random_convex_polygon(np.random.default_rng(seed))
    k = vertex % p.n
    v = p.vertices.copy()
    c = v[k - 1] + chord_at * (v[(k + 1) % p.n] - v[k - 1])
    v[k] = c + 10.0 ** -flatness * (v[k] - c)
    q = Polygon(v)
    _check_mvc_next_to_edge(q, _next_to_edge(q, k + edge, along, 10.0**standoff * q.eps_interior))


@given(
    seed=st.integers(0, 2**32 - 1),
    vertex=st.integers(0, 9),
    gap=st.floats(2.0, 10.0),
    edge=st.integers(-1, 1),
    along=st.floats(0.05, 0.95),
    standoff=st.floats(0.2, 8.0),
)
def test_mvc_next_to_nearly_coincident_vertices(seed, vertex, gap, edge, along, standoff):
    """A corner of a random polygon is cut 10**-gap * diam from its vertex,
    leaving two vertices that close together (the loop stays convex), and
    x sits 10**standoff * eps_interior inside the cut or an edge beside it."""
    p = random_convex_polygon(np.random.default_rng(seed))
    k = vertex % p.n
    eta = 10.0 ** -gap * p.diameter
    unit = p.edge_vectors / p.edge_lengths[:, None]
    v = p.vertices
    q = Polygon(np.concatenate([v[:k], [v[k] - eta * unit[k - 1], v[k] + eta * unit[k]], v[k + 1:]]))
    _check_mvc_next_to_edge(q, _next_to_edge(q, k + edge, along, 10.0**standoff * q.eps_interior))


def test_gradients_match_fd(polygon_suite, rng):
    for p in polygon_suite[:5]:
        pts = sample_interior(p, rng, 30, margin=0.01 * p.diameter)
        for kind, fn in (("mvc", mvc_gradients), ("wachspress", wachspress_gradients)):
            ana = fn(p, pts).gradients
            fd = fd_gradient(p, pts, kind=kind)
            num = np.linalg.norm(ana - fd, axis=2)
            den = np.maximum(np.linalg.norm(ana, axis=2), 0.01)
            assert (num / den).max() < 1e-6


def test_similarity_invariance(polygon_suite, rng):
    """Values are invariant under scale + translation; gradients pick up
    the 1/scale factor, for both kinds from scale 1e-150 to 1e150."""
    p = polygon_suite[0]
    pts = sample_interior(p, rng, 25, margin=1e-3)
    for fn in (mvc_gradients, wachspress_gradients):
        base = fn(p, pts)
        for s in [*rng.uniform(0.1, 10.0, 10), 1e-150, 1e-100, 1e100, 1e150]:
            shift = s * rng.uniform(-5.0, 5.0, 2)
            q = Polygon(s * p.vertices + shift)
            out = fn(q, s * pts + shift)
            assert np.abs(out.values - base.values).max() < 1e-12
            assert np.abs(out.gradients * s - base.gradients).max() < 1e-9


def test_wachspress_area_scaling_is_exact(polygon_suite, rng):
    """The kernel's power-of-two frame changes no bit against the unscaled
    formula on caller-unit differences x - v_i wherever that formula stays
    in range."""
    for p in polygon_suite:
        pts = sample_interior(p, rng, 50, margin=1e-3)
        d = pts.T[:, None, :] - p.vertices.T[:, :, None]  # (2, n, m) planes of x - v_i
        d_next = np.roll(d, -1, axis=1)
        area = 0.5 * (d[0] * d_next[1] - d[1] * d_next[0])
        area_prev = np.roll(area, 1, axis=0)
        e = p.edge_vectors
        e_prev = np.roll(e, 1, axis=0)
        w = (0.5 * (e_prev[:, 0] * e[:, 1] - e_prev[:, 1] * e[:, 0]))[:, None] / (area_prev * area)
        ga = (0.5 * _rot_ccw(e)).T[:, :, None]
        ratio = ga / area + np.roll(ga, 1, axis=1) / area_prev
        lam, glam = _normalized(w, -w * ratio, 1.0)
        out = wachspress_gradients(p, pts)
        assert np.array_equal(wachspress_values(p, pts), lam.T)
        assert np.array_equal(out.values, lam.T)
        assert np.array_equal(out.gradients, glam.transpose(2, 1, 0))


@given(seed=st.integers(0, 2**32 - 1), j=st.integers(-1000, 1000))
@example(seed=8, j=1000)  # Wachspress scan weights sum past 2^24 in the frame
@example(seed=8, j=-1000)
def test_power_of_two_similarity_is_exact(seed, j):
    """A random polygon and its points scaled by 2^j, anywhere in the float
    range, give the same values bit for bit, the gradients over 2^j, the
    geometric lengths times 2^j with the same angles and aspect ratio, and
    every scan field scaled alike, with no floating-point warning. The
    polygon sits off the axes, so its coordinates and the points' offsets
    stay normal numbers at every j."""
    rng = np.random.default_rng(seed)
    p = Polygon(random_convex_polygon(rng).vertices + (2.0, 3.0))
    q = Polygon(np.ldexp(p.vertices, j))
    pts = sample_interior(p, rng, 20, margin=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("mvc", "wachspress"):
            scaled = np.ldexp(pts, j)
            assert np.array_equal(coordinate_values(q, scaled, kind),
                                  coordinate_values(p, pts, kind))
            base, out = coordinate_gradients(p, pts, kind), coordinate_gradients(q, scaled, kind)
            assert np.array_equal(out.values, base.values)
            assert np.array_equal(np.ldexp(out.gradients, j), base.gradients)

            a, b = sup_gradient_scan(p, kind, 16), sup_gradient_scan(q, kind, 16)
            assert (b.n_points, b.overall_vertex) == (a.n_points, a.overall_vertex)
            assert np.ldexp(b.margin, -j) == a.margin
            assert np.ldexp(b.overall_max, j) == a.overall_max
            assert np.array_equal(np.ldexp(b.per_vertex_max, j), a.per_vertex_max)
            assert np.array_equal(np.ldexp(b.argmax_points, -j), a.argmax_points)
        gp, gq = geometric_constants(p), geometric_constants(q)
    for name in ("diameter", "inradius", "d_min", "h_star"):
        assert np.ldexp(getattr(gq, name), -j) == getattr(gp, name), name
    for name in ("beta_min", "beta_max", "aspect_ratio", "alpha_star"):
        assert getattr(gq, name) == getattr(gp, name), name
    assert np.pi / 2.0 <= gq.alpha_star <= np.pi


@pytest.mark.parametrize("kind", ["mvc", "wachspress"])
def test_decimal_scales_across_the_float_range(kind):
    """apex_pentagon(1.5) scaled by 10^k for every k from -300 to 300, at
    interior points, edge points and the vertices: no value is NaN, values
    stay within 1e-15 of the unscaled ones, and each interior point's
    gradients times 10^k stay within 4 eps * diameter / distance of the
    largest unscaled gradient. Rounding 10^k * vertices moves a vertex by
    about eps * diameter, which moves the gradients at a point by that over
    its boundary distance (0.8 of this at worst over 4,000 points)."""
    p = apex_pentagon(1.5)
    rng = np.random.default_rng(7)
    inner = sample_interior(p, rng, 40, margin=1e-3)
    i = rng.integers(0, p.n, 5)
    edge = p.vertices[i] + rng.uniform(0.0, 1.0, (5, 1)) * p.edge_vectors[i]
    pts = np.concatenate([inner, edge, p.vertices])
    lam = coordinate_values(p, pts, kind)
    grad = coordinate_gradients(p, inner, kind).gradients
    tol = 4.0 * EPS * p.diameter / p.signed_boundary_distance(inner) * np.abs(grad).max()
    for k in range(-300, 301):
        s = 10.0**k
        q = Polygon(s * p.vertices)
        assert np.abs(coordinate_values(q, s * pts, kind) - lam).max() <= 1e-15, k
        g = coordinate_gradients(q, s * inner, kind).gradients
        assert (np.abs(s * g - grad).max(axis=(1, 2)) <= tol).all(), k


@pytest.mark.parametrize("n", range(3, 17))
def test_one_point_call_equals_its_batch_row(n):
    """A point's coordinates do not depend on the batch it is evaluated in:
    a one-point call gives its row of the batch call bit for bit, values
    and gradients of both kinds, on a jittered regular n-gon."""
    rng = np.random.default_rng(n)
    ang = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n
    p = Polygon(np.column_stack([np.cos(ang), np.sin(ang)]))
    pts = sample_interior(p, rng, 40, margin=1e-3)
    for kind in ("mvc", "wachspress"):
        lam = coordinate_values(p, pts, kind)
        batch = coordinate_gradients(p, pts, kind)
        for x, row, values, grads in zip(pts, lam, batch.values, batch.gradients):
            one = coordinate_gradients(p, x, kind)
            assert np.array_equal(coordinate_values(p, x, kind), row)
            assert np.array_equal(one.values, values)
            assert np.array_equal(one.gradients, grads)


def test_fd_step_validation():
    with pytest.raises(StepTooLarge):
        # inside the boundary band of 1e-9, but the 1e-6 stencil would cross
        # the boundary
        fd_gradient(SQUARE, (0.5, 5e-7))
    with pytest.raises(OutsidePolygon):
        fd_gradient(SQUARE, (3.0, 0.5))


def test_fd_on_triangle_matches_areal():
    fd = fd_gradient(TRI, (0.3, 0.3), kind="wachspress")
    assert_allclose(fd, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-9)


def test_grad_alpha_triangle_inequality_bound(polygon_suite, rng):
    from mvcoords.geometry import point_geometry_batch

    for p in polygon_suite[:4]:
        pts = sample_interior(p, rng, 500)
        g = point_geometry_batch(p, pts)
        bound = 1.0 / g.r + 1.0 / np.roll(g.r, -1, axis=0)
        norms = np.hypot(g.grad_alpha[0], g.grad_alpha[1])
        assert np.all(norms <= bound * (1.0 + 1e-9))


# ----------------------------------------------------------------- scanning

def test_scan_is_deterministic():
    a = sup_gradient_scan(SQUARE, "mvc", resolution=32)
    b = sup_gradient_scan(SQUARE, "mvc", resolution=32)
    assert a.overall_max == b.overall_max
    assert_allclose(a.per_vertex_max, b.per_vertex_max, rtol=0, atol=0)
    assert_allclose(a.argmax_points, b.argmax_points, rtol=0, atol=0)


def test_scan_of_a_far_translate():
    """A translate by 2^20 (exact in floating point) scans the same points
    and finds the same maxima, at the translated arg-max points."""
    p = apex_pentagon(1.5)
    far = Polygon(p.vertices + 2.0**20)
    for kind in ("mvc", "wachspress"):
        a = sup_gradient_scan(p, kind, resolution=64, margin=1e-4)
        b = sup_gradient_scan(far, kind, resolution=64, margin=1e-4)
        assert b.n_points == a.n_points
        assert_allclose(b.per_vertex_max, a.per_vertex_max, rtol=1e-12)
        assert b.overall_max == pytest.approx(a.overall_max, rel=1e-12)
        assert_allclose(b.argmax_points, a.argmax_points + 2.0**20, rtol=1e-12)


def test_scan_validation():
    with pytest.raises(ValueError):
        sup_gradient_scan(SQUARE, "mvc", resolution=4)
    for margin in (1e-12, np.inf, np.nan):
        with pytest.raises(ValueError, match="margin"):
            sup_gradient_scan(SQUARE, "mvc", margin=margin)
    with pytest.raises(ValueError):
        sup_gradient_scan(SQUARE, "sibson")


def test_scan_wide_pentagon_families_comparable():
    # tame apex: both coordinate families have moderate, similar maxima
    p = apex_pentagon(1.5)
    m = sup_gradient_scan(p, "mvc", resolution=64).overall_max
    w = sup_gradient_scan(p, "wachspress", resolution=64).overall_max
    assert w / m < 3.0
    assert m < 3.0 and w < 3.0


def test_scan_flat_pentagon_separates_families():
    # flattening apex: Wachspress spikes, mean value stays put
    p = apex_pentagon(1.05)
    m = sup_gradient_scan(p, "mvc", resolution=64).overall_max
    w = sup_gradient_scan(p, "wachspress", resolution=64).overall_max
    assert w / m >= 5.0


def test_scan_points_keep_the_margin_and_end_on_the_shell(polygon_suite):
    """Every scan point is at least margin * pad inside, and both ends of
    every scanline sit on the margin shell."""
    pad = 1.0 - 1e-9
    for p, resolution, margin in ((SQUARE, 16, 1e-4), (apex_pentagon(1.001), 64, 1e-4),
                                  (apex_pentagon(1.05), 32, 1e-3), (polygon_suite[0], 24, 1e-2)):
        pts = _scan_grid(p, resolution, margin)
        assert np.all(p.signed_boundary_distance(pts) >= margin * pad)
        assert pts.shape[0] % resolution == 0
        lines = pts.reshape(-1, resolution, 2)
        ends = np.concatenate([lines[:, 0], lines[:, -1]])
        assert np.abs(p.signed_boundary_distance(ends) / margin - 1.0).max() <= 1e-8


def test_scan_point_count_on_flat_pentagon():
    # 512 scanlines of 256 points, less the three that run parallel to an
    # edge at exactly the margin and the row through the apex cap
    scan = sup_gradient_scan(apex_pentagon(1.001), "mvc", resolution=256, margin=1e-4)
    assert scan.n_points == 130048


SCAN_POLYGONS = {
    "square": lambda: SQUARE,  # mirrored scan points tie for the maximum
    "apex-1.5": lambda: apex_pentagon(1.5),
    "apex-1.001": lambda: apex_pentagon(1.001),
    "random-0": lambda: random_convex_polygon(np.random.default_rng(0)),
    "random-1": lambda: random_convex_polygon(np.random.default_rng(1)),
    "random-95": lambda: random_convex_polygon(np.random.default_rng(95)),  # 8 vertices
}


@pytest.mark.parametrize("points", [1, 7, 1000])
@pytest.mark.parametrize("name", sorted(SCAN_POLYGONS))
def test_scan_blocking_is_exact(monkeypatch, name, points):
    """Scanning in blocks of 1, 7 or 1000 grid points, the last one partial,
    gives the point count, maxima and arg-max points of one block bit for
    bit; a tied maximum keeps its first point. A block's lone point sums
    its vertex rows in the same order as a wider block, also with 8 or
    more vertices."""
    p = SCAN_POLYGONS[name]()
    grids = []
    real = coords._scan_grid
    monkeypatch.setattr(coords, "_scan_grid", lambda *args: grids.append(real(*args)) or grids[-1])
    for kind in ("mvc", "wachspress"):
        monkeypatch.setattr(coords, "_SCAN_BLOCK", 2**62)
        whole = sup_gradient_scan(p, kind, resolution=19, margin=1e-4)
        monkeypatch.setattr(coords, "_SCAN_BLOCK", points * p.n)
        blocked = sup_gradient_scan(p, kind, resolution=19, margin=1e-4)
        assert len(grids[-1]) % points != 0 or points == 1
        assert blocked.n_points == whole.n_points
        assert blocked.per_vertex_max.tobytes() == whole.per_vertex_max.tobytes()
        assert blocked.argmax_points.tobytes() == whole.argmax_points.tobytes()
        assert blocked.overall_vertex == whole.overall_vertex


@pytest.mark.parametrize("kind", ["mvc", "wachspress"])
def test_scan_memory_stays_in_blocks(kind):
    """A grid-256 scan allocates at most 16 MiB at its peak: the per-block
    planes, not planes over all 130,048 points (about 114 MiB for mvc)."""
    p = apex_pentagon(1.001)
    tracemalloc.start()
    try:
        sup_gradient_scan(p, kind, 256, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_scan_names_a_non_finite_point_past_the_first_block(monkeypatch):
    """A NaN weight at kept point 10000, in a later block, raises
    EvaluationError naming that scan-wide index."""
    real = coords._mvc_weights
    seen = []
    target = 10_000

    def poisoned(g):
        w = real(g)
        start = sum(seen)
        if start <= target < start + w.shape[1]:
            w[0, target - start] = np.nan
        seen.append(w.shape[1])
        return w

    monkeypatch.setattr(coords, "_mvc_weights", poisoned)
    with pytest.raises(EvaluationError, match=r"non-finite mvc coordinates at point index 10000\b"):
        sup_gradient_scan(apex_pentagon(1.5), "mvc", 256, 1e-4)
    assert seen[0] <= target < sum(seen)


def test_scan_with_no_point_past_the_margin(monkeypatch):
    """Grid points that all lie inside the margin shell leave nothing to
    scan: a typed error, not numpy's empty arg-max."""
    margin = 1e-2

    def shell(q, resolution, margin):
        normal, _ = q.edge_lines
        mid = q.vertices + 0.5 * q.edge_vectors
        return mid + 0.5 * margin * normal

    monkeypatch.setattr(coords, "_scan_grid", shell)
    with pytest.raises(EvaluationError, match="no scan points survive the margin"):
        sup_gradient_scan(apex_pentagon(1.5), "mvc", 64, margin)


def test_scan_refinement_stability():
    """Grid refinement barely moves the MVC sup (bounded gradient), while
    shrinking the margin an order of magnitude blows the Wachspress sup up
    on the nearly flat pentagon."""
    for p in (SQUARE, apex_pentagon(1.01)):
        coarse = sup_gradient_scan(p, "mvc", resolution=128).overall_max
        fine = sup_gradient_scan(p, "mvc", resolution=512).overall_max
        assert fine / coarse < 1.10

    flat = apex_pentagon(1.001)
    m_coarse = sup_gradient_scan(flat, "mvc", resolution=256, margin=1e-3).overall_max
    m_fine = sup_gradient_scan(flat, "mvc", resolution=256, margin=1e-4).overall_max
    assert m_fine / m_coarse < 1.10
    w_coarse = sup_gradient_scan(flat, "wachspress", resolution=256, margin=1e-3).overall_max
    w_fine = sup_gradient_scan(flat, "wachspress", resolution=256, margin=1e-4).overall_max
    assert w_fine / w_coarse > 1.5  # measured around 3.3x
