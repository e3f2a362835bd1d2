"""Quadrature, the nodal interpolant, and the dimensionless error ratio."""

import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvcoords.coords import mvc_values
from mvcoords.errors import DegenerateDenominator, UnsupportedDegree
from mvcoords.geometry import Polygon, apex_pentagon
from mvcoords.interp import (
    MAX_SUBDIVISION,
    SUPPORTED_DEGREES,
    ScalarField,
    error_norms,
    estimate_ratio,
    fan_quadrature,
    field_linear,
    field_sin_exp,
    field_x2,
    field_xy,
    field_y2,
    h2_seminorm,
    standard_fields,
    triangle_rule,
)

SQUARE = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


# ---------------------------------------------------------------- quadrature

def test_supported_degrees():
    assert SUPPORTED_DEGREES == (8, 10)
    with pytest.raises(UnsupportedDegree):
        triangle_rule(3)
    with pytest.raises(UnsupportedDegree):
        fan_quadrature(SQUARE, degree=7)


def test_subdivision_range():
    with pytest.raises(ValueError):
        fan_quadrature(SQUARE, degree=8, subdivision=MAX_SUBDIVISION + 1)
    with pytest.raises(ValueError):
        fan_quadrature(SQUARE, degree=8, subdivision=-1)


@pytest.mark.parametrize("degree", SUPPORTED_DEGREES)
def test_reference_rule_monomial_exactness(degree):
    """Each rule integrates all monomials up to its degree exactly on the
    reference triangle, where the exact value is a!b!/(a+b+2)!."""
    from math import factorial

    bary, w = triangle_rule(degree)
    # map barycentric to the unit right triangle (0,0),(1,0),(0,1)
    x, y = bary[:, 1], bary[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = 0.5 * np.dot(w, x**a * y**b)  # rule weights sum to 1, area 1/2
            want = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-16)


@pytest.mark.parametrize(("degree", "rows"), [(8, 16), (10, 25)])
def test_rule_is_symmetric(degree, rows):
    """Permuting the barycentric columns leaves the set of (point, weight)
    rows unchanged, and no point repeats."""
    bary, w = triangle_rule(degree)
    assert len(set(map(tuple, bary))) == rows == len(w)
    table = sorted(zip(map(tuple, bary), w))
    for perm in itertools.permutations(range(3)):
        assert sorted(zip(map(tuple, bary[:, perm]), w)) == table


def test_rule_arrays_are_fresh():
    bary, w = triangle_rule(8)
    kept = bary.copy(), w.copy()
    bary[:] = 0.0
    w[:] = 0.0
    for got, want in zip(triangle_rule(8), kept):
        assert_allclose(got, want, rtol=0, atol=0)


@pytest.mark.parametrize("degree", SUPPORTED_DEGREES)
@pytest.mark.parametrize("subdivision", [0, 1, 2, 3])
def test_weights_sum_to_area(degree, subdivision, polygon_suite):
    for p in [SQUARE, apex_pentagon(1.05)] + list(polygon_suite[:2]):
        rule = fan_quadrature(p, degree=degree, subdivision=subdivision)
        assert np.sum(rule.weights) == pytest.approx(p.area, rel=1e-12)
        assert np.all(rule.weights > 0)


def test_points_strictly_interior(polygon_suite):
    for p in list(polygon_suite[:3]) + [apex_pentagon(1.01)]:
        rule = fan_quadrature(p, degree=10, subdivision=3)
        assert p.signed_boundary_distance(rule.points).min() > p.eps_interior


def test_square_polynomial_integrals():
    rule = fan_quadrature(SQUARE, degree=8, subdivision=0)
    pts, w = rule.points, rule.weights
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)
    assert np.dot(w, pts[:, 0] ** 2 * pts[:, 1]) == pytest.approx(1.0 / 6.0, rel=1e-13)
    # degree-8 rule on the fan integrates anything of total degree <= 8
    assert np.dot(w, pts[:, 0] ** 3 * pts[:, 1] ** 2) == pytest.approx(
        1.0 / 12.0, rel=1e-13
    )


def test_basis_integral_square_symmetry():
    # the four-fold symmetry of square + fan forces each integral to a
    # quarter of the area at any rule
    rule = fan_quadrature(SQUARE, degree=8, subdivision=1)
    lam = mvc_values(SQUARE, rule.points)
    for i in range(4):
        assert np.dot(rule.weights, lam[:, i]) == pytest.approx(0.25, abs=1e-13)


def test_basis_integral_self_convergence():
    """Subdivision ladder for a rational integrand: monotone, roughly 8x
    error reduction per level (measured limit 0.8821894...)."""
    p = apex_pentagon(1.5)
    vals = []
    for sub in range(4):
        rule = fan_quadrature(p, degree=10, subdivision=sub)
        vals.append(np.dot(rule.weights, mvc_values(p, rule.points)[:, 0]))
    d = np.abs(np.diff(vals))
    assert d[0] > d[1] > d[2]
    assert d[2] < 1e-7
    assert vals[3] == pytest.approx(0.8821894, abs=5e-7)


# -------------------------------------------------------------- scalar fields

def _contract_points(rng) -> np.ndarray:
    """Random points plus signed zeros, tiny and ~1e3 coordinates (y kept
    below 709 so that e^y stays finite)."""
    xs = [0.0, -0.0, 1e-200, -1e-200, 1e3, -999.5]
    ys = [0.0, -0.0, 1e-200, -1e-200, 700.5, -1e3]
    grid = np.array([(a, b) for a in xs for b in ys])
    return np.vstack([rng.uniform(-2.0, 2.0, (40, 2)), grid])


def test_fields_self_consistent(rng):
    """FD cross-check of every packaged field: gradient vs value and
    hessian vs gradient; laplacian and source are exactly the hessian
    trace and its negative."""
    pts = rng.uniform(0.1, 0.9, (50, 2))
    wide = _contract_points(rng)
    h = 1e-6
    for f in standard_fields() + [field_linear()]:
        g = f.gradient(pts)
        for dim, e in enumerate(np.eye(2)):
            fd = (f.value(pts + h * e) - f.value(pts - h * e)) / (2 * h)
            assert_allclose(g[:, dim], fd, rtol=1e-6, atol=1e-8)
            fd = (f.gradient(pts + h * e) - f.gradient(pts - h * e)) / (2 * h)
            assert_allclose(f.hessian(pts)[:, :, dim], fd, rtol=1e-6, atol=1e-8)
        trace = f.hessian(wide)[:, 0, 0] + f.hessian(wide)[:, 1, 1]
        assert np.array_equal(f.laplacian(wide), trace), f.name
        assert np.array_equal(f.source(wide), -trace), f.name


def test_field_jet_is_value_and_gradient(rng):
    """Each built-in field's jet gives exactly its value and gradient."""
    pts = _contract_points(rng)
    for f in standard_fields() + [field_linear()]:
        v, g = f.jet(pts)
        assert v.shape == (len(pts),) and g.shape == (len(pts), 2)
        assert np.array_equal(v, f.value(pts)), f.name
        assert np.array_equal(g, f.gradient(pts)), f.name


def test_sin_exp_is_harmonic(rng):
    assert np.all(field_sin_exp().source(_contract_points(rng)) == 0.0)


def test_fields_rebuild_with_replaced_callables(rng):
    """dataclasses.replace of value, gradient and hessian works on every
    built-in field and keeps its laplacian and jet."""
    pts = rng.uniform(-1.0, 1.0, (5, 2))
    for f in standard_fields() + [field_linear()]:
        g = dataclasses.replace(
            f, value=lambda x: "v", gradient=lambda x: "g", hessian=lambda x: "h"
        )
        assert (g.value(pts), g.gradient(pts), g.hessian(pts)) == ("v", "g", "h")
        assert g.name == f.name and g.jet is f.jet and g.laplacian is f.laplacian
        assert np.array_equal(g.source(pts), f.source(pts))


def test_sin_exp_hessian_layout():
    """Row a of the hessian is the gradient of d u / d x_a."""
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (20, 2))
    s = np.sin(pts[:, 0]) * np.exp(pts[:, 1])
    c = np.cos(pts[:, 0]) * np.exp(pts[:, 1])
    hess = field_sin_exp().hessian(pts)
    assert hess.shape == (20, 2, 2)
    assert np.array_equal(hess[:, 0, 0], -s)
    assert np.array_equal(hess[:, 0, 1], c)
    assert np.array_equal(hess[:, 1, 0], c)
    assert np.array_equal(hess[:, 1, 1], s)


def test_h2_seminorm_x2():
    rule = fan_quadrature(SQUARE, degree=10, subdivision=2)
    assert h2_seminorm(field_x2(), rule) == pytest.approx(2.0, rel=1e-13)
    # mixed term counts once: |xy|_H2 = sqrt(int 1) = 1
    assert h2_seminorm(field_xy(), rule) == pytest.approx(1.0, rel=1e-13)


# -------------------------------------------------------------- interpolation

def test_interpolate_partition_and_linear():
    """The mean value interpolant sum_i u(v_i) lambda_i reproduces
    constants and linear fields."""
    pts = np.random.default_rng(5).uniform(0.05, 0.95, (50, 2))
    lam = mvc_values(SQUARE, pts)
    assert_allclose(lam @ np.ones(4), 1.0, atol=1e-13)
    lin = field_linear()
    assert_allclose(lam @ lin.value(SQUARE.vertices), lin.value(pts), atol=1e-12)


# ------------------------------------------------------------- error measures

def test_linear_field_interpolates_exactly(polygon_suite):
    lin = field_linear()
    for p in polygon_suite[:5]:
        rule = fan_quadrature(p, degree=8, subdivision=1)
        l2, h1 = error_norms(p, lin, rule)
        # the H1 residual is gradient roundoff at the quadrature points
        # nearest the boundary; about 1e-12 is the double-precision floor
        assert l2 < 1e-12
        assert h1 < 5e-12
        assert estimate_ratio(p, lin, rule) == 0.0


def test_x2_errors_on_unit_square():
    """The interpolant of x^2 on the square is exactly x (linear precision
    does it), making both norms closed-form."""
    rule = fan_quadrature(SQUARE, degree=10, subdivision=2)
    l2, h1 = error_norms(SQUARE, field_x2(), rule)
    assert l2 == pytest.approx(1.0 / np.sqrt(30.0), rel=1e-12)
    assert h1 == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
    assert estimate_ratio(SQUARE, field_x2(), rule) == pytest.approx(
        1.0 / (2.0 * np.sqrt(6.0)), rel=1e-12
    )


def test_error_norms_scale_exactly():
    # fixed quadratic field: interpolation error is second order, so
    # halving the square halves H1 twice and L2 three times
    prev = None
    for h in (1.0, 0.5, 0.25):
        p = Polygon(h * SQUARE.vertices)
        rule = fan_quadrature(p, degree=10, subdivision=2)
        cur = error_norms(p, field_x2(), rule)
        if prev is not None:
            assert prev[0] / cur[0] == pytest.approx(8.0, rel=1e-9)
            assert prev[1] / cur[1] == pytest.approx(4.0, rel=1e-9)
        prev = cur


def test_estimate_ratio_scale_invariant():
    vals = []
    for h in (1.0, 0.5, 0.25):
        p = Polygon(h * SQUARE.vertices)
        rule = fan_quadrature(p, degree=10, subdivision=2)
        vals.append(estimate_ratio(p, field_x2(), rule))
    assert max(vals) - min(vals) < 1e-9 * vals[0]


def test_estimate_ratio_same_at_every_scale(polygon_suite):
    """A quadratic field's ratio depends on shape alone: at s = 10^k for k
    in -30..30 it equals the unit-scale ratio (measured drift 5.8e-15). An
    absolute cutoff on the H2 seminorm once returned 0 for s <= 1e-15."""
    fields = (field_x2(), field_xy(), field_y2())
    for v in [apex_pentagon(1.5).vertices] + [p.vertices for p in polygon_suite[:3]]:
        rule = fan_quadrature(Polygon(v), degree=8, subdivision=1)
        want = [estimate_ratio(Polygon(v), f, rule) for f in fields]
        for k in range(-30, 31):
            q = Polygon(10.0**k * v)
            rule = fan_quadrature(q, degree=8, subdivision=1)
            assert_allclose([estimate_ratio(q, f, rule) for f in fields], want, rtol=1e-12)


def test_estimate_ratio_bounded_on_suite(polygon_suite):
    ratios = []
    for p in polygon_suite:
        rule = fan_quadrature(p, degree=10, subdivision=2)
        ratios.extend(estimate_ratio(p, f, rule) for f in standard_fields())
    # empirical bound with slack; the point is uniform boundedness
    assert max(ratios) < 1.0


def test_estimate_ratio_stable_under_quadrature_refinement(polygon_suite):
    p = polygon_suite[0]
    for f in standard_fields():
        a = estimate_ratio(p, f, fan_quadrature(p, degree=10, subdivision=2))
        b = estimate_ratio(p, f, fan_quadrature(p, degree=10, subdivision=3))
        assert abs(a - b) <= 0.10 * max(abs(a), abs(b))


def test_rule_pair_agreement():
    """The two reference rules must agree to about four significant digits
    on rational integrands (measured worst 9.2e-5 on the pentagon)."""
    p = apex_pentagon(1.5)
    for f in (field_x2(), field_sin_exp()):
        a = error_norms(p, f, fan_quadrature(p, degree=8, subdivision=2))
        b = error_norms(p, f, fan_quadrature(p, degree=10, subdivision=3))
        for x, y in zip(a, b):
            assert abs(x - y) / abs(y) < 2e-4


def test_error_norms_take_the_field_from_its_jet():
    """error_norms evaluates the field at the quadrature points through
    jet alone; value is needed only at the vertices."""
    rule = fan_quadrature(SQUARE, degree=8, subdivision=1)

    def refuse(x):
        raise AssertionError("gradient evaluated outside the jet")

    for f in standard_fields():
        g = dataclasses.replace(f, gradient=refuse)
        assert error_norms(SQUARE, g, rule) == error_norms(SQUARE, f, rule)


def test_degenerate_denominator():
    # a field that misreports a zero hessian while clearly not linear
    def value(x):
        return np.sin(3.0 * np.atleast_2d(x)[:, 0])

    def gradient(x):
        return np.stack(
            [3.0 * np.cos(3.0 * np.atleast_2d(x)[:, 0]),
             np.zeros(np.atleast_2d(x).shape[0])], axis=1,
        )

    liar = ScalarField(
        value=value,
        gradient=gradient,
        hessian=lambda x: np.zeros((np.atleast_2d(x).shape[0], 2, 2)),
        laplacian=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        jet=lambda x: (value(x), gradient(x)),
        name="liar",
    )
    rule = fan_quadrature(SQUARE, degree=8, subdivision=1)
    with pytest.raises(DegenerateDenominator):
        estimate_ratio(SQUARE, liar, rule)
