"""Convex polygon geometry.

Validation, quality metrics (diameter, inradius, angle extremes, the
separation radius ``h_star`` and angle threshold ``alpha_star``), and the
per-point distance/angle data that the barycentric coordinate formulas
are built from. Everything is direct numpy geometry: the inradius comes
from the order in which the inward-offset edges vanish, with no linear
program or numerical search.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateEdge, NonConvex, PolygonError, WrongOrientation

# Relative tolerances: geometry predicates scale them by the polygon size.
EPS_GEOM = 1e-12
EPS_EVAL = 1e-9


def _rot_ccw(u: np.ndarray) -> np.ndarray:
    """Rotate 2D vectors (last axis) by +90 degrees."""
    return np.stack([-u[..., 1], u[..., 0]], axis=-1)


class Polygon:
    """Immutable convex polygon given by a counterclockwise vertex loop.

    Vertices are stored as an (n, 2) float array. Edge ``k`` joins vertex
    ``k`` to vertex ``(k + 1) % n``; all indices in this package are
    0-based. Interior angles equal to pi are accepted, so a square with
    mid-side nodes validates (the Wachspress evaluator rejects such
    polygons separately).
    """

    def __init__(self, vertices) -> None:
        try:
            v = np.asarray(vertices, dtype=float)
        except (TypeError, ValueError) as exc:
            raise PolygonError(f"vertices are not an array of numbers: {exc}") from None
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise PolygonError("need an (n, 2) array of at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise PolygonError("vertices must be finite")

        i, j = np.triu_indices(len(v), k=1)
        gap = np.hypot(*(v[i] - v[j]).T)  # no overflow or underflow far from unit size
        diameter = float(np.max(gap))
        if diameter < np.finfo(float).tiny:  # zero, or subnormal: no finite frame scale
            raise DegenerateEdge(f"all vertices coincide, or nearly: diameter {diameter:g}")

        # The frame: scaled exactly by the power of two s putting the diameter in
        # [1, 2), where no product of two lengths leaves the float range.
        s = self._scale = float(np.ldexp(1.0, 1 - np.frexp(diameter)[1]))
        u, unit = v * s, diameter * s
        edges, lengths, turn, area2 = _frame_table(u)
        if np.min(lengths) <= EPS_GEOM * unit:
            raise DegenerateEdge(
                f"edge {int(np.argmin(lengths))} shorter than {EPS_GEOM:g} * diameter"
            )
        if abs(area2) <= EPS_GEOM * unit * unit:
            raise NonConvex("polygon has (numerically) zero area")

        # Convexity test on the sine of each turn angle, so the tolerance is
        # dimensionless. Zero turns (interior angle pi) are allowed. Signed by
        # the orientation, the sines of the loop as given equal those of the
        # reversed loop bit for bit, and a reflex vertex keeps its input index.
        sine = np.copysign(1.0, area2) * turn / (lengths * np.roll(lengths, -1))
        if np.min(sine) < -EPS_GEOM:
            raise NonConvex(f"reflex turn at vertex {int((np.argmin(sine) + 1) % len(v))}")

        if area2 < 0.0:
            warnings.warn("clockwise vertex loop reversed", WrongOrientation, stacklevel=2)
            v = v[::-1].copy()
            edges, lengths, turn, area2 = _frame_table(u[::-1])
            sine = np.roll(sine[::-1], -2)  # turn k of the reversed loop is input turn n - 3 - k
        v.setflags(write=False)
        self._vertices = v
        self._diameter = diameter
        self._d_min = float(np.min(gap))
        self._edges, self._lengths, self._turn, self._area2 = edges, lengths, turn, area2
        self._sine = sine

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    @cached_property
    def n(self) -> int:
        return self._vertices.shape[0]

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        """(n, 2) array; row k is vertex[k+1] - vertex[k], cyclically."""
        return self._edges / self._scale

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        return self._lengths / self._scale

    @cached_property
    def edge_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """Inward unit edge normals n_k, shape (n, 2), and offsets
        n_k . v_k, shape (n,): the polygon is {x : n_k . x >= offset_k}."""
        normal = _rot_ccw(self._edges) / self._lengths[:, None]
        return normal, np.sum(normal * self._vertices, axis=1)

    @property
    def diameter(self) -> float:
        """Largest distance between two polygon points (attained at vertices)."""
        return self._diameter

    @property
    def scale(self) -> float:
        """The power of two mapping the polygon to its frame (diameter in [1, 2))."""
        return self._scale

    @cached_property
    def area(self) -> float:
        return 0.5 * self._area2 / self._scale / self._scale

    @cached_property
    def centroid(self) -> np.ndarray:
        """Vertex centroid (mean of vertices); interior for convex polygons."""
        return self._vertices.mean(axis=0)

    @cached_property
    def interior_angles(self) -> np.ndarray:
        """Interior angle at each vertex, in (0, pi].

        Uses atan2 of the turn cross and dot of the frame edges into and out
        of each vertex, so angles at exactly pi are well conditioned; tiny
        negative crosses from roundoff are clamped to zero.
        """
        e = self._edges
        dot = np.sum(np.roll(e, 1, axis=0) * e, axis=1)
        return np.arctan2(np.maximum(np.roll(self._turn, 1), 0.0), -dot)

    @cached_property
    def inradius(self) -> float:
        """Radius of the largest inscribed circle (Chebyshev radius).

        A triangle's is 2A / P, formed in the frame. Otherwise it is computed
        directly from the inward offsets of the edge lines (see
        :func:`_inscribed_circle`), with no linear program. The value is the
        smallest edge-line distance at a point of the polygon, so it is the
        radius of a true inscribed circle, equal to the largest one up to
        roundoff. On thin triangles that centre solve amplifies roundoff by
        diameter / inradius, which the closed form does not.
        """
        if self.n == 3:
            return self._area2 / float(self._lengths.sum()) / self._scale
        return _inscribed_circle(self)[1]

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        v = self._vertices
        return (float(v[:, 0].min()), float(v[:, 1].min()),
                float(v[:, 0].max()), float(v[:, 1].max()))

    @cached_property
    def eps_interior(self) -> float:
        """Absolute margin below which a point counts as on the boundary."""
        return EPS_EVAL * self.diameter

    def signed_boundary_distance(self, points) -> np.ndarray:
        """Signed distance to the boundary at each of (m, 2) points:
        positive inside, negative outside.

        Computed as the minimum signed distance to the edge lines, which for
        interior points of a convex polygon never exceeds the true boundary
        distance (so it is a safe interiority margin). A point with an
        infinite coordinate and no NaN lies outside every polygon and gets
        -inf; a NaN point gets NaN. Edge factors come from the frame.
        """
        X = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.isfinite(X).all():
            finite = np.isfinite(X).all(axis=1)
            sd = np.where(np.isnan(X).any(axis=1), np.nan, -np.inf)
            sd[finite] = self.signed_boundary_distance(X[finite])
            return sd
        v = self._vertices
        e = self._edges
        # (n, m) planes of x - v_k, one row per edge
        dx = X[:, 0] - v[:, 0, None]
        dy = X[:, 1] - v[:, 1, None]
        cross = e[:, 0, None] * dy - e[:, 1, None] * dx
        return np.min(cross / self._lengths[:, None], axis=0)

    def edge_distances(self, points) -> np.ndarray:
        """Euclidean distance from each point to each closed edge segment.

        Returns an (n, m) edge-major array for (m, 2) input points: row k
        holds the distances to edge k.
        """
        X = np.atleast_2d(np.asarray(points, dtype=float))
        v = self._vertices
        e = self.edge_vectors
        dx = X[:, 0] - v[:, 0, None]
        dy = X[:, 1] - v[:, 1, None]
        ex, ey = e[:, 0, None], e[:, 1, None]
        fx, fy = self._edges.T[..., None]  # frame edges: one factor of each product
        tt = np.clip((dx * fx + dy * fy) / (ex * fx + ey * fy), 0.0, 1.0)
        return np.hypot(X[:, 0] - (v[:, 0, None] + tt * ex), X[:, 1] - (v[:, 1, None] + tt * ey))

    def __repr__(self) -> str:
        return f"Polygon(n={self.n}, diameter={self.diameter:.6g})"


def polygon_from_json(text: str) -> Polygon:
    """Read a polygon from its JSON form ``{"vertices": [[x, y], ...]}``.

    Both orientations are accepted; clockwise input is reversed with a
    warning.
    """
    data = json.loads(text)
    if not isinstance(data, dict) or "vertices" not in data:
        raise PolygonError('polygon JSON must be an object with a "vertices" key')
    return Polygon(data["vertices"])


def load_polygon(path) -> Polygon:
    with open(path, "r", encoding="utf-8") as fh:
        return polygon_from_json(fh.read())


def save_polygon(p: Polygon, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"vertices": p.vertices.tolist()}))


def _frame_table(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Edges e_k = u_{k+1} - u_k of an (n, 2) vertex loop u, their lengths,
    the turn crosses e_k x e_{k+1} (at vertex k + 1), and twice the signed
    area: the shoelace sum taken about vertex 0, so a translate far from the
    origin keeps it."""
    e = np.roll(u, -1, axis=0) - u
    turn = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    d = u[1:] - u[0]
    area2 = float(np.sum(d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]))
    return e, np.hypot(e[:, 0], e[:, 1]), turn, area2


def _inscribed_circle(p: Polygon) -> tuple[np.ndarray, float]:
    """Centre and radius of a largest inscribed circle, in O(n^2).

    Move every edge line inward at unit speed. Edge k vanishes when its
    line passes through the meeting point of its two current neighbours:
    at the point c and time t solving n_j . c - t = b_j for those three
    lines. Removing the edge that vanishes first changes only its
    neighbours' times, and the common point of the last three lines is the
    centre. The normals n_j are those of ``edge_lines``. A run of collinear
    edges is one line: edge k joins the line of edge k - 1 when the sine of
    the turn between them, as the convexity test in ``Polygon`` took it, is
    at most EPS_GEOM.

    Near-ties can leave a nearly parallel pair among the last three lines,
    whose common point is then ill conditioned (the flat apex pentagon
    does), so every vanishing point is a candidate centre and the one
    deepest inside wins: a true inscribed circle, largest up to roundoff.
    Working in the frame of ``p.scale`` about the vertex centroid makes the
    result similarity invariant.
    """
    normal = p.edge_lines[0]
    offset = np.sum(normal * ((p.vertices - p.centroid) * p.scale), axis=1)
    line = np.flatnonzero(np.roll(p._sine, 1) > EPS_GEOM)
    rows = np.column_stack([normal[line], -np.ones(len(line))])
    rhs = offset[line]
    prev = np.roll(np.arange(len(line)), 1)
    succ = np.roll(np.arange(len(line)), -1)

    def vanish(k: np.ndarray) -> np.ndarray:
        """(cx, cy, t) where each line k meets its current neighbours."""
        trio = np.stack([prev[k], k, succ[k]], axis=-1)
        return np.linalg.solve(rows[trio], rhs[trio][..., None])[..., 0]

    event = vanish(np.arange(len(line)))
    t = event[:, 2].copy()
    for _ in range(len(line) - 3):
        k = int(np.argmin(t))
        t[k] = np.inf
        a, c = prev[k], succ[k]
        succ[a], prev[c] = c, a
        pair = np.array([a, c])
        event[pair] = vanish(pair)
        t[pair] = event[pair, 2]
    # each row is a vanishing point: of its line when that line went, or
    # of the final three lines for the three that are left
    depth = (event[:, :2] @ normal.T - offset).min(axis=1)
    best = int(np.argmax(depth))
    return p.centroid + event[best, :2] / p.scale, float(depth[best]) / p.scale


def min_vertex_distance(p: Polygon) -> float:
    """Smallest distance between any two vertices (not only edge ends)."""
    return p._d_min


@dataclass(frozen=True)
class GeometricConstants:
    """Quality constants of a polygon, reported in its own length units."""

    diameter: float
    inradius: float
    aspect_ratio: float
    d_min: float  # smallest distance between any two vertices (G2)
    beta_min: float
    beta_max: float
    h_star: float
    alpha_star: float


def geometric_constants(p: Polygon) -> GeometricConstants:
    """Compute all quality constants for the polygon as given.

    Lengths are in the polygon's own units; callers who want diameter-one
    lengths normalize first with :func:`normalize_to_unit_diameter`. The
    angle alpha* = max(pi - beta_min / 2, 2 arctan(diameter / h*)) takes
    h* per unit diameter, as the paper defines it, so it depends on shape
    alone.
    """
    beta = p.interior_angles
    h_star = compute_hstar(p)
    alpha_star = max(np.pi - float(beta.min()) / 2.0, 2.0 * np.arctan(p.diameter / h_star))
    return GeometricConstants(
        diameter=p.diameter,
        inradius=p.inradius,
        aspect_ratio=p.diameter / p.inradius,
        d_min=min_vertex_distance(p),
        beta_min=float(beta.min()),
        beta_max=float(beta.max()),
        h_star=h_star,
        alpha_star=float(alpha_star),
    )


def compute_hstar(p: Polygon) -> float:
    """Largest verified radius h such that no ball B(x, h) centered in the
    polygon meets two non-adjacent edges or three edges.

    For n >= 4 this is half the minimum distance over non-adjacent closed
    edge pairs (any three edges of such a polygon contain a non-adjacent
    pair, so the pair bound also enforces the three-edge clause). Edges are
    adjacent when they share a vertex, so the two halves of a subdivided
    side count as adjacent. Non-adjacent edges of a convex polygon do not
    cross, so each pair's distance is attained at an end point: the
    minimum runs over every vertex against every edge not incident to it,
    and for n >= 4 each such vertex and edge lie on a non-adjacent pair.

    For triangles every edge pair is adjacent and only the three-edge
    clause binds: h* is the minimum over the triangle of the largest edge
    distance, attained at the incenter, so it is the inradius 2A / P.
    """
    if p.n == 3:
        return p.inradius
    dist = p.edge_distances(p.vertices)
    k = np.arange(p.n)
    dist[k, k] = dist[k - 1, k] = np.inf  # vertex k ends edges k - 1 and k
    return 0.5 * float(dist.min())


def normalize_to_unit_diameter(p: Polygon) -> Polygon:
    """The polygon scaled about the origin to diameter one (``p`` itself
    when its diameter already is one)."""
    d = p.diameter
    if abs(d - 1.0) <= 1e-14:
        return p
    return Polygon((1.0 / d) * p.vertices)


def apex_pentagon(height: float) -> Polygon:
    """The square [-1, 1]^2 with a fifth vertex at (0, height) over the top
    edge. As height drops toward 1 the apex angle flattens toward pi and the
    two short edges shrink, which is what makes the family a stress test for
    coordinate gradients.
    """
    if not 1.0 < height < np.inf:
        raise ValueError("apex height must be finite and exceed 1")
    return Polygon([(-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, height)])


class PointGeometryArrays:
    """Per-point geometry of m evaluation points against the n vertices,
    stored vertex-major.

    Every field is an (n, m) plane whose row i holds vertex i's value at
    each point, so the cyclic next vertex is a row shift and a sum over
    the vertices is n contiguous row adds. Gradient fields are (2, n, m):
    an x plane and a y plane. Fields are computed on first use and kept, so
    a caller pays only for what it reads: ``r`` (distances r_i), ``cross``
    and ``dot`` of the vertex-to-point vector pairs (v_i - x, v_{i+1} - x),
    ``alpha`` (subtended angles alpha_i), ``t`` (half-angle tangents t_i),
    and the gradients ``grad_r``, ``grad_alpha`` and ``grad_t``; ``cross``
    is twice the signed triangle area A(x, v_i, v_{i+1}). Fields are in the
    frame of the polygon, whose power of two ``scale`` they carry: ``r`` is
    r_i * scale, ``cross`` and ``dot`` carry scale**2, and ``grad_alpha``
    and ``grad_t`` are the caller gradients over scale.
    """

    def __init__(self, p: Polygon, points) -> None:
        X = np.atleast_2d(np.asarray(points, dtype=float))
        self.scale = p.scale
        # x*s - v_i*s, with the bits of (x - v_i)*s, as x and y planes of
        # shape (2, n, m): five fields read it, so it is kept
        self._d = (X * self.scale).T[:, None, :] - (p.vertices * self.scale).T[:, :, None]

    @staticmethod
    def _next(a: np.ndarray) -> np.ndarray:
        """Rows of vertex i + 1 (cyclically) at row i of a plane stack."""
        return np.roll(a, -1, axis=-2)

    @cached_property
    def _d_next(self) -> np.ndarray:
        return self._next(self._d)

    @cached_property
    def r(self) -> np.ndarray:
        return np.hypot(self._d[0], self._d[1])

    @cached_property
    def cross(self) -> np.ndarray:
        (dx, dy), (nx, ny) = self._d, self._d_next
        return dx * ny - dy * nx

    @cached_property
    def dot(self) -> np.ndarray:
        (dx, dy), (nx, ny) = self._d, self._d_next
        return dx * nx + dy * ny

    @cached_property
    def alpha(self) -> np.ndarray:
        return np.arctan2(self.cross, self.dot)

    @cached_property
    def t(self) -> np.ndarray:
        rr = self.r * self._next(self.r)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.dot >= 0.0, self.cross / (rr + self.dot),
                            (rr - self.dot) / self.cross)

    @cached_property
    def grad_r(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._d / self.r

    @cached_property
    def grad_alpha(self) -> np.ndarray:
        # x - v_i turned by -90 degrees over r_i^2, plus x - v_{i+1} turned
        # by +90 degrees over r_{i+1}^2
        (dx, dy), (nx, ny) = self._d, self._d_next
        rr = self.r * self.r
        rr_next = self._next(rr)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.stack([dy / rr - ny / rr_next, nx / rr_next - dx / rr])

    @cached_property
    def grad_t(self) -> np.ndarray:
        # grad t = grad alpha / (1 + cos alpha) = grad alpha (1 + t^2) / 2,
        # taken from the cancellation-free t: the form (r_i r_{i+1} + dot)
        # cancels catastrophically as alpha -> pi, next to an edge
        return self.grad_alpha * (0.5 * (1.0 + self.t * self.t))


def point_geometry_batch(p: Polygon, points) -> PointGeometryArrays:
    """Distances r_i, subtended angles alpha_i, half-angle tangents t_i and
    their gradients at each point of an (m, 2) batch, each computed when
    first read, as (n, m) vertex-major planes; a gradient is a (2, n, m)
    stack of its x and y planes. Lengths and gradients are in the frame of
    ``p``, whose power of two the result carries as ``scale``.

    Pure array computation with no interiority checks; callers gate the
    points. Angles come from atan2 of cross/dot, and tangents use
    cross / (r_i r_{i+1} + dot) or its reciprocal-cancellation-free
    counterpart, so both stay accurate near alpha = 0 and alpha = pi.
    """
    return PointGeometryArrays(p, points)
