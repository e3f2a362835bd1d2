"""Mean value and Wachspress barycentric coordinates on convex polygons.

Both families are evaluated in batch over (m, 2) point arrays. Values are
defined on the closed polygon (boundary points take the edge-limit path,
which is linear along each edge); analytic gradients are defined only at
strictly interior points. :func:`evaluate` classifies each point once and
is the path every point-array call takes; :func:`interior_coordinates`
runs the kernels on a geometry of points already known to be interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollinearVertices,
    EvaluationError,
    OutsidePolygon,
    PointTooCloseToBoundary,
    StepTooLarge,
)
from .geometry import (PointGeometryArrays, Polygon, _rot_ccw, _with_neighbour,
                       point_geometry_batch)

_COLLINEAR_TOL = 1e-9


@dataclass
class BasisEval:
    """Basis values (m, n) and, when requested, gradients (m, n, 2)."""

    values: np.ndarray
    gradients: np.ndarray | None = None


def _as_points(points) -> tuple[np.ndarray, bool]:
    x = np.asarray(points, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError("points must be a (2,) or (m, 2) array")
    return X, single


def _edge_limit_values(p: Polygon, X: np.ndarray) -> np.ndarray:
    """Boundary values as an (n, m) plane: linear along the nearest edge,
    delta at vertices; the position along the edge is found in the frame."""
    m = X.shape[0]
    lam = np.zeros((p.n, m))
    k = np.argmin(p.edge_distances(X), axis=0)
    v = p.vertices[k] * p.scale
    e = p._edges[k]
    t = np.clip(np.sum((X * p.scale - v) * e, axis=1) / np.sum(e * e, axis=1), 0.0, 1.0)
    cols = np.arange(m)
    lam[k, cols] = 1.0 - t
    lam[(k + 1) % p.n, cols] += t
    return lam


# Per-point status codes of an Evaluation. The failing ones are numbered in
# the order batch calls check them, and each maps to the error a call
# raises for it and the message that names the point.
OK, OUTSIDE, BAND, NONFINITE = range(4)
_STATUS_ERRORS = (
    None,
    (OutsidePolygon, "point index {i} lies outside the polygon"),
    (PointTooCloseToBoundary, "gradients need strictly interior points; point index {i} is not"),
    (EvaluationError, "non-finite {kind} coordinates at point index {i}; too near the boundary?"),
)
STATUS_NAMES = tuple("ok" if e is None else e[0].__name__ for e in _STATUS_ERRORS)


def _raise_at(code: int, hit: np.ndarray, kind: str) -> None:
    """Raise the error of status ``code`` at the first point of mask ``hit``, if any."""
    if hit.any():
        error, text = _STATUS_ERRORS[code]
        raise error(text.format(i=int(np.argmax(hit)), kind=kind))


def _normalized(w: np.ndarray, gw: np.ndarray | None, scale: float):
    """Coordinates w / sum(w) from frame weight planes (n, m) and, when
    given, their caller-unit gradients from frame weight gradient planes
    (2, n, m) by the quotient rule; ``scale`` is the frame's power of two.
    Vertex rows are added in order, unlike numpy's sum for one point."""
    total = w[0].copy()
    for row in w[1:]:
        total += row
    lam = w / total
    if gw is None:
        return lam, None
    gtotal = gw[:, :1].copy()
    for i in range(1, len(w)):
        gtotal += gw[:, i:i + 1]
    # frame gradients are in range at any size; total / scale need not be
    return lam, (gw - lam * gtotal) / total * scale


def _mvc_weights(g: PointGeometryArrays) -> np.ndarray:
    """Mean value weights (t_{i-1} + t_i) / r_i, shape (n, m): the plane the
    geometry keeps, so every reader of one geometry shares it."""
    return g.mvc_weights


def _mvc_interior(p: Polygon, g: PointGeometryArrays, gradients: bool):
    w = _mvc_weights(g)
    gw = None
    if gradients:
        gw = _with_neighbour(np.add, g.grad_t, -1)
        gw /= g.r
        gw -= (w / g.r) * g.grad_r
    return _normalized(w, gw, g.scale)


def _wachspress_interior(p: Polygon, g: PointGeometryArrays, gradients: bool):
    area = 0.5 * g.cross  # signed area of triangle (x, v_i, v_{i+1}); positive inside
    corner = 0.5 * np.roll(p._turn, 1)  # frame units, as are those of g
    w = corner[:, None] / _with_neighbour(np.multiply, area, -1)
    gw = None
    if gradients:
        # grad A_i is constant: half the CCW normal of edge i, as (2, n, 1)
        ga = (0.5 * _rot_ccw(p._edges)).T[:, :, None]
        gw = -w * _with_neighbour(np.add, ga / area, -1)
    return _normalized(w, gw, g.scale)


_INTERIOR = {"mvc": _mvc_interior, "wachspress": _wachspress_interior}
KINDS = tuple(_INTERIOR)


def _require_kind(p: Polygon, kind: str) -> None:
    """Raise ValueError for an unknown kind, and CollinearVertices for
    Wachspress coordinates, which need every interior angle below pi."""
    if kind not in _INTERIOR:
        raise ValueError(f"unknown coordinate kind {kind!r}")
    gap = np.pi - p.interior_angles
    if kind == "wachspress" and np.any(gap < _COLLINEAR_TOL):
        k = int(np.argmin(gap))
        raise CollinearVertices(f"interior angle at vertex {k} is within {_COLLINEAR_TOL:g} of pi")


def _interior_planes(p: Polygon, g: PointGeometryArrays, kind: str, gradients: bool):
    """The unchecked kernel of a valid kind: the :func:`interior_coordinates`
    planes and the (m,) mask of the points where they are not finite."""
    lam, glam = _INTERIOR[kind](p, g, gradients)
    bad = ~np.isfinite(lam).all(axis=0)
    if glam is not None:
        bad |= ~np.isfinite(glam).all(axis=(0, 1))
    return lam, glam, bad


def interior_coordinates(p: Polygon, g: PointGeometryArrays, kind: str, gradients: bool):
    """Coordinates of kind "mvc" or "wachspress" on a
    :func:`point_geometry_batch` object ``g`` of strictly interior points:
    values as an (n, m) plane and, when asked, gradients as (2, n, m) x and
    y planes, else None. The first point too near the boundary to come out
    finite raises EvaluationError naming its index."""
    _require_kind(p, kind)
    lam, glam, bad = _interior_planes(p, g, kind, gradients)
    _raise_at(NONFINITE, bad, kind)
    return lam, glam


@dataclass
class Evaluation:
    """Coordinates of one kind at m classified points: an (m,) status
    code per point, values as an (n, m) plane and, when asked, gradients as
    (2, n, m) planes. OK points have both, BAND points (within the interior
    tolerance of the boundary) edge-limit values only; OUTSIDE and
    NONFINITE (a non-finite point, kernel or edge-limit output) points neither."""

    kind: str
    status: np.ndarray
    values: np.ndarray
    gradients: np.ndarray | None

    def raise_first(self, *codes: int) -> None:
        """Raise the error of the first of ``codes`` that some point has."""
        for code in codes:
            _raise_at(code, self.status == code, self.kind)


def evaluate(p: Polygon, points, kind: str, gradients: bool) -> Evaluation:
    """Classify one (2,) or many (m, 2) points once, by their signed
    boundary distance, and evaluate coordinates of kind "mvc" or
    "wachspress" where defined: the interior kernel on the strictly
    interior points only, edge-limit values on the boundary band. A failed
    point raises nothing; its status says how it failed. A kind error
    raises before any point is classified."""
    _require_kind(p, kind)
    X = _as_points(points)[0]
    # a NaN point's distance fails every comparison and keeps the default
    sd = p.signed_boundary_distance(X)
    eps = p.eps_interior
    status = np.select([sd < -eps, sd > eps, sd <= eps], [OUTSIDE, OK, BAND], NONFINITE)
    interior = status == OK
    band = status == BAND
    lam = np.full((p.n, len(X)), np.nan)
    glam = np.full((2, p.n, len(X)), np.nan) if gradients else None
    values, grads, bad = _interior_planes(
        p, point_geometry_batch(p, X[interior]), kind, gradients
    )
    lam[:, interior] = values
    if gradients:
        glam[:, :, interior] = grads
    lam[:, band] = edge = _edge_limit_values(p, X[band])
    status[np.flatnonzero(interior)[bad]] = NONFINITE
    status[np.flatnonzero(band)[~np.isfinite(edge).all(axis=0)]] = NONFINITE
    return Evaluation(kind, status, lam, glam)


def coordinate_values(p: Polygon, points, kind: str) -> np.ndarray:
    """Coordinates of kind "mvc" or "wachspress" at one (2,) or many
    (m, 2) points; see :func:`mvc_values`."""
    X, single = _as_points(points)
    ev = evaluate(p, X, kind, gradients=False)
    ev.raise_first(OUTSIDE, NONFINITE)
    return ev.values[:, 0] if single else np.ascontiguousarray(ev.values.T)


def coordinate_gradients(p: Polygon, points, kind: str) -> BasisEval:
    """Values and analytic gradients of kind "mvc" or "wachspress" at
    strictly interior points; see :func:`mvc_gradients`."""
    X, single = _as_points(points)
    ev = evaluate(p, X, kind, gradients=True)
    ev.raise_first(OUTSIDE, BAND, NONFINITE)
    values = np.ascontiguousarray(ev.values.T)
    grads = np.ascontiguousarray(ev.gradients.transpose(2, 1, 0))
    return BasisEval(values[0], grads[0]) if single else BasisEval(values, grads)


def mvc_values(p: Polygon, points) -> np.ndarray:
    """Mean value coordinates at one (2,) or many (m, 2) points.

    Boundary points (within the interior tolerance) get the edge-limit
    values; points outside the polygon raise OutsidePolygon.
    """
    return coordinate_values(p, points, "mvc")


def mvc_gradients(p: Polygon, points) -> BasisEval:
    """Mean value coordinate values and analytic gradients at strictly
    interior points."""
    return coordinate_gradients(p, points, "mvc")


def wachspress_values(p: Polygon, points) -> np.ndarray:
    """Wachspress coordinates; requires every interior angle < pi."""
    return coordinate_values(p, points, "wachspress")


def wachspress_gradients(p: Polygon, points) -> BasisEval:
    """Wachspress values and analytic gradients at strictly interior
    points; requires every interior angle < pi."""
    return coordinate_gradients(p, points, "wachspress")


def fd_gradient(p: Polygon, points, kind: str = "mvc") -> np.ndarray:
    """Central finite-difference gradients of the coordinate values, with
    step 1e-6 times the diameter.

    Every stencil point must stay strictly interior, so points closer to
    the boundary than step + interior tolerance raise StepTooLarge.
    """
    _require_kind(p, kind)
    X, single = _as_points(points)
    h = 1e-6 * p.diameter
    sd = p.signed_boundary_distance(X)
    _raise_at(OUTSIDE, sd < -p.eps_interior, kind)
    _raise_at(NONFINITE, np.isnan(sd), kind)
    near = ~(sd > h + p.eps_interior)
    if near.any():
        raise StepTooLarge(f"stencil of half-width {h:g} leaves the interior at point "
                           f"index {int(np.argmax(near))}")
    shifts = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    stencil = (shifts[:, None, :] + X[None, :, :]).reshape(-1, 2)
    vals, _, bad = _interior_planes(p, point_geometry_batch(p, stencil), kind, False)
    _raise_at(NONFINITE, bad.reshape(4, -1).any(axis=0), kind)
    vals = vals.reshape(p.n, 4, X.shape[0])
    grad = np.stack([vals[:, 0] - vals[:, 1], vals[:, 2] - vals[:, 3]]) / (2.0 * h)
    grad = np.ascontiguousarray(grad.transpose(2, 1, 0))
    return grad[0] if single else grad


@dataclass
class ScanResult:
    """Outcome of a gradient sup scan over an interior grid."""

    kind: str
    resolution: int
    margin: float
    n_points: int
    per_vertex_max: np.ndarray
    argmax_points: np.ndarray
    overall_max: float
    overall_vertex: int


# A scan keeps the points whose signed boundary distance is at least
# margin * _SCAN_PAD; the scanline cuts aim at margin / _SCAN_PAD, so the
# points on the margin shell stay on the admissible side.
_SCAN_PAD = 1.0 - 1e-9
# A scan, and the property audit, evaluate their points in blocks of at most
# _SCAN_BLOCK // n, so each (n, m) plane of a block holds at most this many
# values (256 KiB) and stays in L2.
_SCAN_BLOCK = 2**15
# The largest scan resolution, and the largest --grid of the command line.
# At this size an eval lattice peaks at 0.55 GB RSS for a 5-vertex polygon
# and 1.1 GB for 10 vertices, and the default --surface dump at 0.88 GB.
MAX_GRID = 768


def _scan_grid(p: Polygon, resolution: int, margin: float) -> np.ndarray:
    """Axis-aligned scan points covering {x : dist(x, boundary) >= margin},
    unfiltered: the scan drops any that fall short of the margin.

    A uniform lattice misses the thin boundary strips where steep
    gradients live (strip thickness can be far below the lattice spacing),
    so the grid is built per scanline instead: each of ``resolution``
    columns and then ``resolution`` rows is cut to its admissible segment,
    which is filled with ``resolution`` points. That set is the
    intersection of the half-planes n_k . (x - v_k) >= thr over the inward
    unit edge normals n_k, so on the line x = c + t u the segment ends come
    in closed form: with a_k = n_k . u and b_k = n_k . (c - v_k), edge k
    requires t >= (thr - b_k) / a_k when a_k > 0 and t <= (thr - b_k) / a_k
    when a_k < 0, and an edge parallel to the line keeps it only when
    b_k >= thr. End points land on the margin shell, where the supremum of
    an unbounded family concentrates.
    """
    x0, y0, x1, y1 = p.bbox
    thr = margin / _SCAN_PAD
    normal, offset = p.edge_lines
    parts = []
    for axis, fixed in ((0, np.linspace(x0 + margin, x1 - margin, resolution)),
                        (1, np.linspace(y0 + margin, y1 - margin, resolution))):
        a = normal[:, 1 - axis]
        b = fixed[:, None] * normal[:, axis] - offset
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = (thr - b) / a
        lo = np.max(np.where(a > 0.0, cut, -np.inf), axis=1)
        hi = np.min(np.where(a < 0.0, cut, np.inf), axis=1)
        keep = (lo <= hi) & np.all((a != 0.0) | (b >= thr), axis=1)
        line = np.empty((int(keep.sum()), resolution, 2))
        line[:, :, axis] = fixed[keep, None]
        line[:, :, 1 - axis] = np.linspace(lo[keep], hi[keep], resolution, axis=1)
        parts.append(line.reshape(-1, 2))
    return np.concatenate(parts, axis=0)


def sup_gradient_scan(
    p: Polygon,
    kind: str = "mvc",
    resolution: int = 64,
    margin: float | None = None,
) -> ScanResult:
    """Largest gradient norm of each basis function over interior scan
    points at least ``margin`` away from the boundary.

    The margin defaults to 1e-4 times the diameter. The reported maxima
    estimate the supremum over the whole margin-inset region, so for
    coordinate families whose gradients blow up near a flattening vertex
    the result grows like 1/margin while well-behaved families stay
    bounded as the margin shrinks.

    The points are evaluated in blocks of ``_SCAN_BLOCK // n`` (2**15 // n)
    grid points, each reduced into a running per-vertex maximum, so no
    plane over the whole scan is built. A block replaces a maximum only
    when strictly greater, so ties keep the first point, and no result
    depends on the block size. The first point whose kernel output is not
    finite raises EvaluationError naming its index among the kept points.
    """
    if not 8 <= resolution <= MAX_GRID:
        raise ValueError(f"resolution must lie in 8..{MAX_GRID}")
    margin = 1e-4 * p.diameter if margin is None else float(margin)
    if not p.eps_interior < margin < np.inf:
        raise ValueError("margin must be finite and exceed the interior tolerance")
    _require_kind(p, kind)
    # scan the copy centred on the vertex centroid: the scanline cuts take
    # differences of edge-line offsets, which lose digits far from the origin
    q = Polygon(p.vertices - p.centroid)
    grid = _scan_grid(q, resolution, margin)
    vertices = np.arange(p.n)
    per_vertex = np.full(p.n, -np.inf)
    argmax_points = np.zeros((p.n, 2))
    n_points = 0
    step = max(1, _SCAN_BLOCK // p.n)
    for start in range(0, len(grid), step):
        block = grid[start:start + step]
        pts = block[q.signed_boundary_distance(block) >= margin * _SCAN_PAD]
        if len(pts) == 0:
            continue
        _, glam, bad = _interior_planes(q, point_geometry_batch(q, pts), kind, True)
        if bad.any():
            _raise_at(NONFINITE, np.pad(bad, (n_points, 0)), kind)
        norms = np.hypot(glam[0], glam[1])
        rows = np.argmax(norms, axis=1)
        top = norms[vertices, rows]
        gain = top > per_vertex
        per_vertex[gain] = top[gain]
        argmax_points[gain] = pts[rows[gain]]
        n_points += len(pts)
    if n_points == 0:
        raise EvaluationError("no scan points survive the margin; lower it or refine")
    k = int(np.argmax(per_vertex))
    return ScanResult(
        kind=kind,
        resolution=resolution,
        margin=margin,
        n_points=n_points,
        per_vertex_max=per_vertex,
        argmax_points=argmax_points + p.centroid,
        overall_max=float(per_vertex[k]),
        overall_vertex=k,
    )
