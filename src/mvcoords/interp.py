"""Quadrature on convex polygons, barycentric interpolation, and the
error measures for it.

Integration uses symmetric Gauss rules on a fan triangulation about the
vertex centroid; the interpolant is the mean value coordinate combination
of vertex values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .coords import mvc_gradients
from .errors import DegenerateDenominator, UnsupportedDegree
from .geometry import Polygon

# Dunavant's symmetric Gauss rules on the triangle (IJNME 21, 1985) as orbit
# generators: a barycentric point and the weight that all its distinct
# permutations share. Weights sum to one; multiply by triangle area on use.
_ORBITS = {
    8: (
        ((0.333333333333333, 0.333333333333333, 0.333333333333333), 0.144315607677787),
        ((0.081414823414554, 0.459292588292723, 0.459292588292723), 0.095091634267285),
        ((0.658861384496480, 0.170569307751760, 0.170569307751760), 0.103217370534718),
        ((0.898905543365938, 0.050547228317031, 0.050547228317031), 0.032458497623198),
        ((0.008394777409958, 0.263112829634638, 0.728492392955404), 0.027230314174435),
    ),
    10: (
        ((0.333333333333333, 0.333333333333333, 0.333333333333333), 0.090817990382754),
        ((0.028844733232685, 0.485577633383657, 0.485577633383657), 0.036725957756467),
        ((0.781036849029926, 0.109481575485037, 0.109481575485037), 0.045321059435528),
        ((0.141707219414880, 0.307939838764121, 0.550352941820999), 0.072757916845420),
        ((0.025003534762686, 0.246672560639903, 0.728323904597411), 0.028327242531057),
        ((0.009540815400299, 0.066803251012200, 0.923655933587500), 0.009421666963733),
    ),
}

# Expansion order of each orbit: it fixes a rule's row order, and with it the
# roundoff of every sum over the rule, down to the CG path of the FEM solve.
_PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0), (2, 0, 1))

SUPPORTED_DEGREES = tuple(sorted(_ORBITS))
MAX_SUBDIVISION = 3


def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points (k, 3) and unit-sum weights (k,) for a symmetric
    Gauss rule exact to the given polynomial degree on a triangle."""
    try:
        orbits = _ORBITS[degree]
    except KeyError:
        raise UnsupportedDegree(
            f"degree {degree} not available; choose from {SUPPORTED_DEGREES}"
        ) from None
    rows = [(point, w) for g, w in orbits
            for point in dict.fromkeys(tuple(g[i] for i in perm) for perm in _PERMUTATIONS)]
    points, weights = zip(*rows)
    return np.array(points), np.array(weights)


@dataclass(frozen=True)
class QuadratureRule:
    """Points and absolute weights over one polygon; weights sum to area."""

    points: np.ndarray
    weights: np.ndarray


def _subdivide_4way(tris: np.ndarray) -> np.ndarray:
    """Split each (k, 3, 2) triangle at the edge midpoints into four."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return np.concatenate([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ])


def fan_triangles(p: Polygon, subdivision: int = 0) -> np.ndarray:
    """Fan triangulation about the vertex centroid, each triangle split
    4-way ``subdivision`` times; returns a (k, 3, 2) array."""
    c = np.broadcast_to(p.centroid, (p.n, 2))
    tris = np.stack([c, p.vertices, np.roll(p.vertices, -1, axis=0)], axis=1)
    for _ in range(subdivision):
        tris = _subdivide_4way(tris)
    return tris


def _map_rule(tris: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    bary, w = triangle_rule(degree)
    pts = np.einsum("qb,kbd->kqd", bary, tris).reshape(-1, 2)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    weights = (areas[:, None] * w[None, :]).reshape(-1)
    return pts, weights


def fan_quadrature(p: Polygon, degree: int = 8, subdivision: int = 1) -> QuadratureRule:
    """Quadrature over the polygon: a symmetric triangle Gauss rule of the
    given degree on the (optionally 4-way refined) centroid fan.

    The rules keep every point strictly inside its sub-triangle, so all
    points are strictly interior to the polygon.
    """
    if subdivision not in range(MAX_SUBDIVISION + 1):
        raise ValueError(f"subdivision must be in 0..{MAX_SUBDIVISION}")
    pts, weights = _map_rule(fan_triangles(p, subdivision), degree)
    return QuadratureRule(points=pts, weights=weights)


@dataclass(frozen=True)
class ScalarField:
    """Smooth scalar test field with analytic derivatives.

    All callables take an (m, 2) array: ``value`` returns (m,),
    ``gradient`` (m, 2), ``hessian`` (m, 2, 2) and ``laplacian`` (m,);
    ``jet`` returns value and gradient together, sharing their terms.
    ``source`` is ``-laplacian``, so a Poisson load needs no Hessian.

    ``factors`` is None or a pair ``(fx, fy)`` of 1-D jets with
    u(x, y) = fx(x) fy(y): each takes an array of coordinates and returns
    the factor's values and derivatives, so that ``jet`` is
    ``(f g, [f' g, f g'])``. A caller can then tabulate u on a tensor
    grid from one evaluation per grid line.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    laplacian: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    name: str = "field"
    factors: tuple[Callable, Callable] | None = None

    def source(self, points: np.ndarray) -> np.ndarray:
        return -self.laplacian(_batch(points))


def _batch(points) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))


def _from_jet(jet, hessian, laplacian, name: str) -> ScalarField:
    """A field whose value and gradient are the two halves of its jet."""
    return ScalarField(
        lambda x: jet(x)[0], lambda x: jet(x)[1], hessian, laplacian, jet, name=name
    )


def _quadratic_field(c: float, b, hess, name: str) -> ScalarField:
    """u = c + b·x + ½ xᵀHx for a constant symmetric Hessian H."""
    (b0, b1), ((h00, h01), (_, h11)) = b, hess
    h = np.array(hess, dtype=float)

    def jet(x):
        x, y = _batch(x).T
        v = c + b0 * x + b1 * y + (0.5 * h00 * x * x + h01 * x * y + 0.5 * h11 * y * y)
        return v, np.stack([b0 + h00 * x + h01 * y, b1 + h01 * x + h11 * y], axis=1)

    def hessian(x):
        return np.broadcast_to(h, (_batch(x).shape[0], 2, 2)).copy()

    def laplacian(x):
        return np.full(_batch(x).shape[0], h00 + h11)

    return _from_jet(jet, hessian, laplacian, name)


def field_linear(a: float = 0.25, bx: float = 1.0, by: float = -2.0) -> ScalarField:
    return _quadratic_field(a, (bx, by), ((0.0, 0.0), (0.0, 0.0)), f"{a:g}+{bx:g}x+{by:g}y")


def field_x2() -> ScalarField:
    return _quadratic_field(0.0, (0.0, 0.0), ((2.0, 0.0), (0.0, 0.0)), "x^2")


def field_xy() -> ScalarField:
    return _quadratic_field(0.0, (0.0, 0.0), ((0.0, 1.0), (1.0, 0.0)), "xy")


def field_y2() -> ScalarField:
    return _quadratic_field(0.0, (0.0, 0.0), ((0.0, 0.0), (0.0, 2.0)), "y^2")


def field_sin_exp() -> ScalarField:
    """u = sin(x) e^y; harmonic, so its Poisson source vanishes."""

    def fx(x):
        return np.sin(x), np.cos(x)

    def fy(y):
        ey = np.exp(y)
        return ey, ey

    def jet(x):
        x = _batch(x)
        f, df = fx(x[:, 0])
        g, dg = fy(x[:, 1])
        return f * g, np.stack([df * g, f * dg], axis=1)

    def hess(x):
        x = _batch(x)
        ey = np.exp(x[:, 1])
        s, c = np.sin(x[:, 0]) * ey, np.cos(x[:, 0]) * ey
        return np.stack([-s, c, c, s], axis=1).reshape(-1, 2, 2)

    def laplacian(x):
        return np.zeros(_batch(x).shape[0])

    field = _from_jet(jet, hess, laplacian, "sin(x)e^y")
    return replace(field, factors=(fx, fy))


def standard_fields() -> list[ScalarField]:
    """The quadratic/analytic fields used by the estimate-ratio studies."""
    return [field_x2(), field_xy(), field_y2(), field_sin_exp()]


def error_norms(p: Polygon, u: ScalarField, rule: QuadratureRule) -> tuple[float, float]:
    """L2 norm and H1 seminorm of u - Iu under the given rule, with the
    interpolant's gradient taken analytically."""
    nodal = u.value(p.vertices)
    basis = mvc_gradients(p, rule.points)
    iu = basis.values @ nodal
    giu = np.einsum("mnd,n->md", basis.gradients, nodal)
    uv, ug = u.jet(rule.points)
    diff = uv - iu
    gdiff = ug - giu
    l2 = float(np.sqrt(np.dot(rule.weights, diff * diff)))
    h1 = float(np.sqrt(np.dot(rule.weights, np.sum(gdiff * gdiff, axis=1))))
    return l2, h1


def h2_seminorm(u: ScalarField, rule: QuadratureRule) -> float:
    """Quadrature H2 seminorm of the field: sqrt(∫ uxx² + uxy² + uyy²)."""
    h = u.hessian(rule.points)
    dens = h[:, 0, 0] ** 2 + h[:, 0, 1] ** 2 + h[:, 1, 1] ** 2
    return float(np.sqrt(np.dot(rule.weights, dens)))


def estimate_ratio(p: Polygon, u: ScalarField, rule: QuadratureRule) -> float:
    """H1-seminorm error of the interpolant divided by diameter times the
    H2 seminorm of the field: the dimensionless quantity whose boundedness
    is the first-order interpolation estimate. The seminorm (not the full
    H1 norm) keeps the ratio exactly invariant under uniform scaling of
    the polygon-and-field pair.

    A field whose H2 seminorm is exactly zero, as every affine field's is,
    returns 0 when its H1 error is roundoff; otherwise the ratio is
    undefined and DegenerateDenominator is raised. Neither test depends on
    the polygon's size.
    """
    _, err = error_norms(p, u, rule)
    h2 = h2_seminorm(u, rule)
    if h2 == 0.0:
        # an affine field carries gradient roundoff of about 1e-12 of its
        # nodal values in the H1 residual (a 2D H1 seminorm does not change
        # with size); anything orders of magnitude above that means the
        # field's hessian disagrees with its value/gradient callables
        if err <= 1e-9 * float(np.max(np.abs(u.value(p.vertices)))):
            return 0.0
        raise DegenerateDenominator(
            f"H2 seminorm {h2:g} vanishes but the H1 error {err:g} does not"
        )
    return float(err / (p.diameter * h2))
