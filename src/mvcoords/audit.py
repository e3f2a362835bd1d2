"""Randomized property audits.

Generates quality-controlled convex polygons, samples interior points,
and counts violations of the geometric and barycentric properties the
rest of the package relies on. Everything is deterministic for a fixed
seed, so audit reports can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coords import _SCAN_BLOCK, KINDS, fd_gradient, interior_coordinates
from .errors import PolygonError
from .geometry import (
    GeometricConstants,
    Polygon,
    _inset,
    _with_neighbour,
    geometric_constants,
    min_vertex_distance,
    normalize_to_unit_diameter,
    point_geometry_batch,
)

GAMMA_MAX = 6.0
D_STAR = 0.1
MAX_DRAWS = 2000
FD_SAMPLES = 10  # points for the analytic vs FD gradient check
# The audit's working set is flat in the sample count, but both sample sets
# are drawn whole: 151 MB peak RSS at this count on a regular 10-gon
MAX_SAMPLES = 10**6

# Slacks for the audited inequalities; every check has zero violations at
# these on the seeded reports.
TOL_ANGLE_SUM = 1e-12          # |Σα - 2π|
TOL_WEIGHT_SUM = 1e-9          # Σw ≥ 2π - slack on unit diameter
TOL_GRAD_ALPHA = 1e-9          # |∇α| ≤ 1/r_i + 1/r_{i+1} (relative)
TOL_PARTITION = 1e-12          # |Σλ - 1|
TOL_LINEAR_PRECISION = 1e-12   # |Σλv - x| per unit diameter
TOL_NONNEGATIVE = -1e-12       # λ ≥ this
TOL_GRAD_SUM = 1e-9            # |Σ∇λ| and |Σv⊗∇λ - I|
TOL_FD_MATCH = 1e-6            # analytic vs central differences


# Shewchuk's bound on the float error of the orientation determinant,
# relative to |left| + |right| (Discrete Comput. Geom. 18, 1997)
_TURN_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _turn(a, b, c):
    """The cross (b - a) x (c - a) of three points given as pairs of floats,
    exact in sign unless its products underflow: positive when a, b, c turn
    left. It is the float value when the error bound proves that value's
    sign, else the exact rational."""
    left, right = (b[0] - a[0]) * (c[1] - a[1]), (b[1] - a[1]) * (c[0] - a[0])
    if abs(left - right) > _TURN_ERRBOUND * (abs(left) + abs(right)):
        return left - right
    a, b, c = ([Fraction(t) for t in q] for q in (a, b, c))
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def ConvexHull(points: np.ndarray) -> np.ndarray:
    """Indices of the convex hull vertices of (m, 2) points, counterclockwise
    from the lexicographically smallest, by Andrew's monotone chain with an
    exact turn test; collinear and repeated points are dropped.

    It replaces ``scipy.spatial.ConvexHull(points).vertices``: on star draws
    both give the same vertices in the same cyclic order, but Qhull starts
    the loop at an end of its first facet, so the chain's polygons are
    Qhull's with their vertex labels rotated. The name is kept because the
    benchmark tracer rebinds it to count polygon draws.
    """
    order = np.lexsort((points[:, 1], points[:, 0])).tolist()
    pts = points.tolist()
    hull = []
    for sweep in (order, order[::-1]):  # lower chain, then upper
        chain = []
        for i in sweep:
            while len(chain) > 1 and _turn(pts[chain[-2]], pts[chain[-1]], pts[i]) <= 0:
                chain.pop()  # a right turn, a straight one, or a repeated point
            chain.append(i)
        hull += chain[:-1]
    if pts[order[0]] == pts[order[-1]]:  # one point, maybe repeated
        hull = order[:1]
    return np.array(hull)


def random_convex_polygon(rng: np.random.Generator) -> Polygon:
    """Random unit-diameter convex polygon with 5..10 vertices meeting the
    aspect-ratio bound (gamma < GAMMA_MAX) and the pairwise vertex
    separation bound (> D_STAR).

    Vertices are drawn on a random-radius star around the origin and
    passed through :func:`ConvexHull`; draws failing the vertex-count or
    quality gates are rejected and retried.
    """
    for _ in range(MAX_DRAWS):
        target = int(rng.integers(5, 11))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, target))
        rad = rng.uniform(0.4, 1.0, target)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        hull = ConvexHull(pts)
        if len(hull) != target:
            continue
        try:
            poly = Polygon(pts[hull])
        except PolygonError:
            continue
        poly = normalize_to_unit_diameter(poly)
        if poly.diameter / poly.inradius >= GAMMA_MAX:
            continue
        if min_vertex_distance(poly) <= D_STAR:
            continue
        # keep corners honestly convex so Wachspress stays well defined
        if poly.interior_angles.max() > np.pi - 1e-6:
            continue
        return poly
    raise RuntimeError(f"no acceptable polygon in {MAX_DRAWS} draws")


def sample_interior(
    p: Polygon,
    rng: np.random.Generator,
    count: int,
    margin: float | None = None,
) -> np.ndarray:
    """Uniform interior samples more than ``margin`` from the boundary
    (default: the strict-interior tolerance), drawn in the polygon inset by
    the margin and a few ulps: a fan triangle by area, then a point in it by
    the square-root map, 3 * count uniforms whatever the polygon. A negative
    count, a negative or non-finite margin, or one not safely below the
    inradius raises ValueError."""
    margin = p.eps_interior if margin is None else float(margin)
    if not 0.0 <= margin < np.inf or count < 0:
        raise ValueError(f"need a finite margin >= 0 and a count >= 0, not {margin:g} and {count}")
    pad = 8.0 * np.spacing(np.abs(p.vertices).max() + p.diameter)
    w = _inset(p, margin + pad)
    e = w[1:] - w[:1]
    fan = np.cumsum(np.maximum(e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0], 0.0))
    normal, offset = p.edge_lines  # nearly parallel lines meet only to eps / their sine
    if margin >= p.inradius or not fan.any() or (w @ normal.T - offset).min() <= margin + pad / 2:
        raise ValueError(f"margin {margin:g} is not safely below the inradius {p.inradius:g}")
    pick, r, s = rng.random((3, count))
    k = np.searchsorted(fan, pick * fan[-1])  # never past the last triangle
    r = np.sqrt(r)
    return w[0] + (r * (1.0 - s))[:, None] * e[k] + (r * s)[:, None] * e[k + 1]


@dataclass
class CheckCounter:
    name: str
    checked: int = 0
    violations: int = 0
    worst: float = 0.0


class _CheckCounters(dict):
    """Counters by check name, each created the first time its check runs,
    so a report lists the checks in the order the audit runs them."""

    def __missing__(self, name: str) -> CheckCounter:
        counter = self[name] = CheckCounter(name)
        return counter

    def tally(self, name: str, residual, bad) -> None:
        """Add one check's residuals to its row: every entry is a case, one
        that ``bad`` flags or that is NaN a violation, and the largest (NaN
        if any is, and NaN is kept once seen) the worst. An empty residual
        adds no case."""
        residual = np.asarray(residual)
        counter = self[name]
        counter.checked += residual.size
        counter.violations += int(np.count_nonzero(bad | np.isnan(residual)))
        counter.worst = float(np.maximum(counter.worst, residual.max(initial=0)))


@dataclass
class PropertyAuditReport:
    """Violation counts per audited property."""

    seed: int
    n_polygons: int
    samples_per_polygon: int
    checks: list[CheckCounter] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"property audit: seed={self.seed} polygons={self.n_polygons} "
            f"samples={self.samples_per_polygon}",
        ]
        width = max(len(c.name) for c in self.checks)
        for c in self.checks:
            lines.append(
                f"  {c.name:<{width}}  checked {c.checked:>10}  "
                f"violations {c.violations:>6}  worst {c.worst:.3e}"
            )
        lines.append(f"total violations: {self.total_violations}")
        return "\n".join(lines) + "\n"


def _far_close_vertices(small_r: np.ndarray, big_a: np.ndarray) -> np.ndarray:
    """For each wide angle, the number of close vertices off its edge.

    ``small_r`` and ``big_a`` are (n, m) vertex-major masks of vertices
    within h* and angles above alpha*; angle i spans the edge from vertex i
    to i + 1, and the counts follow ``np.nonzero(big_a)``.
    """
    i, j = np.nonzero(big_a)
    return small_r.sum(axis=0)[j] - small_r[i, j] - small_r[(i + 1) % len(small_r), j]


def audit_polygon(
    p: Polygon,
    rng: np.random.Generator,
    samples: int,
    checks: _CheckCounters,
) -> None:
    """Run every audited property on one unit-diameter polygon.

    The sample sets are drawn whole, then walked together in the
    sup-gradient scan's blocks: near-equal runs of at most
    ``_SCAN_BLOCK // n`` points, so the working set does not grow with the
    sample count and no block holds a lone point (whose BLAS and sum paths
    round differently). Each block gets one point geometry per set, read
    as (n, m) vertex-major planes, and tallies every row once; counts add
    and worst cases take a maximum, so the report does not depend on the
    blocks. The sets keep a margin above the interior tolerance, so they go
    to the interior kernels unclassified; non-finite kernel output stops
    the audit.
    """
    gc = geometric_constants(p)
    x = sample_interior(p, rng, samples, margin=1e-7 * p.diameter)
    # Gradient identities are evaluated on their own, less boundary-hugging
    # sample set: the quotient rule runs through intermediates that grow
    # like 1/distance, so the identity residual picks up roundoff roughly
    # like eps/distance^1.5 and a 1e-9 tolerance is only meaningful with
    # some standoff. Values are identity-protected and keep the tight set.
    xg = sample_interior(p, rng, samples, margin=1e-3 * p.diameter)
    xf = sample_interior(p, rng, FD_SAMPLES, margin=0.01 * p.diameter)
    blocks = -(-samples // max(1, _SCAN_BLOCK // p.n))
    for k in range(blocks):
        part = slice(k * samples // blocks, (k + 1) * samples // blocks)
        _audit_block(p, gc, x[part], xg[part], xf if k == 0 else None, checks)


def _audit_block(p: Polygon, gc: GeometricConstants, x: np.ndarray, xg: np.ndarray,
                 xf: np.ndarray | None, checks: _CheckCounters) -> None:
    """Tally every row on one block of the value samples ``x`` and the
    gradient samples ``xg``; the block that is given the FD samples ``xf``
    also tallies the once-per-polygon rows, in their places in the report."""
    g = point_geometry_batch(p, x)

    err = np.abs(g.alpha.sum(axis=0) - 2.0 * np.pi)
    checks.tally("angle sum 2pi", err, err > TOL_ANGLE_SUM)

    if xf is not None:
        # The separation radius is computed as a supremum, so it can equal
        # d_min/2 exactly (the unit square does); the audited bound is <=.
        half = 0.5 * gc.d_min
        checks.tally("h* at most half min vertex gap", gc.h_star / half,
                     not gc.h_star <= half * (1.0 + 1e-12))

    small_r = g.r < gc.h_star * g.scale  # g.r is in frame units
    big_a = g.alpha > gc.alpha_star

    cnt = small_r.sum(axis=0)
    checks.tally("at most one vertex within h*", cnt, cnt > 1)

    cnt = big_a.sum(axis=0)
    checks.tally("at most one angle above alpha*", cnt, cnt > 1)

    off_edge = _far_close_vertices(small_r, big_a)
    checks.tally("close vertex belongs to the wide edge", off_edge, off_edge > 0)

    i, j = np.nonzero(small_r)
    spread = g.alpha[i - 1, j] + g.alpha[i, j]
    checks.tally("close vertex has wide adjacent angles", 2.0 * np.pi / 3.0 - spread,
                 spread <= 2.0 * np.pi / 3.0)

    bound = _with_neighbour(np.add, 1.0 / g.r, 1)
    rel = np.hypot(g.grad_alpha[0], g.grad_alpha[1]) / bound - 1.0
    checks.tally("grad alpha bounded by 1/r_i + 1/r_{i+1}", rel, rel > TOL_GRAD_ALPHA)

    hit = p.edge_distances(x) <= gc.h_star * (1.0 - 1e-9)
    cnt = hit.sum(axis=0)
    # two edges hit are adjacent when they are consecutive in the loop
    adjacent = (hit[:-1] & hit[1:]).any(axis=0) | (hit[-1] & hit[0])
    checks.tally("ball below h* meets <= 2 adjacent edges", cnt,
                 (cnt > 2) | ((cnt == 2) & ~adjacent))

    wsum = g.mvc_weights.sum(axis=0)  # the plane the mvc kernel reads below
    wsum *= g.scale  # to caller units; in place, as a new array here added page faults
    checks.tally("weight sum >= 2pi (unit diameter)", 2.0 * np.pi - wsum,
                 wsum < 2.0 * np.pi - TOL_WEIGHT_SUM)

    gg = point_geometry_batch(p, xg)
    gf = None if xf is None else point_geometry_batch(p, xf)
    vt = p.vertices.T  # vt @ lam is sum_i v_i lambda_i, one row per coordinate

    for kind in KINDS:
        lam, _ = interior_coordinates(p, g, kind, gradients=False)

        checks.tally(f"nonnegative ({kind})", -lam, lam < TOL_NONNEGATIVE)

        err = np.abs(lam.sum(axis=0) - 1.0)
        checks.tally(f"partition of unity ({kind})", err, err > TOL_PARTITION)

        err = np.abs(vt @ lam - x.T).max(axis=0)
        checks.tally(f"linear precision ({kind})", err, err > TOL_LINEAR_PRECISION * p.diameter)

        _, glam = interior_coordinates(p, gg, kind, gradients=True)

        err = np.abs(glam.sum(axis=1)).max(axis=0)
        checks.tally(f"grad sum zero ({kind})", err, err > TOL_GRAD_SUM)

        # jac[b, a] = sum_i v_i,a d(lambda_i)/dx_b, the identity exactly
        jac = vt @ glam
        err = np.abs(jac - np.eye(2)[:, :, None]).max(axis=(0, 1))
        checks.tally(f"grad linear precision ({kind})", err, err > TOL_GRAD_SUM)

        if gf is not None:
            _, glam_f = interior_coordinates(p, gf, kind, gradients=True)
            fd = fd_gradient(p, xf, kind=kind).transpose(2, 1, 0)
            rel = np.hypot(*(glam_f - fd)) / np.maximum(np.hypot(*glam_f), 0.01)
            checks.tally(f"analytic vs FD gradient ({kind})", rel, rel > TOL_FD_MATCH)


def run_property_audit(
    n_polygons: int = 100,
    samples_per_polygon: int = 10_000,
    seed: int = 42,
) -> PropertyAuditReport:
    """Audit every property over freshly generated random polygons.

    Both counts must be at least 1, and the sample count at most
    MAX_SAMPLES; any other count raises ValueError.
    """
    if n_polygons < 1 or samples_per_polygon < 1:
        raise ValueError("polygon and sample counts must be at least 1")
    if samples_per_polygon > MAX_SAMPLES:
        raise ValueError(f"{samples_per_polygon} samples per polygon, more than the "
                         f"{MAX_SAMPLES} allowed")
    rng = np.random.default_rng(seed)
    checks = _CheckCounters()
    for _ in range(n_polygons):
        p = random_convex_polygon(rng)
        audit_polygon(p, rng, samples_per_polygon, checks)
    return PropertyAuditReport(
        seed=seed,
        n_polygons=n_polygons,
        samples_per_polygon=samples_per_polygon,
        checks=list(checks.values()),
    )
