"""Coordinate values, analytic gradients, and the sup-gradient scanner."""

import numpy as np
import pytest
from hypothesis import given
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
from mvcoords.geometry import Polygon, _rot_ccw, apex_pentagon, point_geometry_batch

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
    """The kernel's power-of-two area scaling changes no bit against the
    unscaled formula wherever that formula stays in range."""
    for p in polygon_suite:
        pts = sample_interior(p, rng, 50, margin=1e-3)
        g = point_geometry_batch(p, pts)
        area = 0.5 * g.cross  # (n, m) planes
        area_prev = np.roll(area, 1, axis=0)
        e = p.edge_vectors
        e_prev = np.roll(e, 1, axis=0)
        w = (0.5 * (e_prev[:, 0] * e[:, 1] - e_prev[:, 1] * e[:, 0]))[:, None] / (area_prev * area)
        ga = (0.5 * _rot_ccw(e)).T[:, :, None]
        ratio = ga / area + np.roll(ga, 1, axis=1) / area_prev
        lam, glam = _normalized(w, -w * ratio)
        out = wachspress_gradients(p, pts)
        assert np.array_equal(wachspress_values(p, pts), lam.T)
        assert np.array_equal(out.values, lam.T)
        assert np.array_equal(out.gradients, glam.transpose(2, 1, 0))


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


def test_scan_validation():
    with pytest.raises(ValueError):
        sup_gradient_scan(SQUARE, "mvc", resolution=4)
    with pytest.raises(ValueError):
        sup_gradient_scan(SQUARE, "mvc", margin=1e-12)
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
