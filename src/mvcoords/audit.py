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

from .coords import KINDS, _mvc_weights, fd_gradient, interior_coordinates
from .errors import PolygonError
from .geometry import (
    GeometricConstants,
    Polygon,
    geometric_constants,
    min_vertex_distance,
    normalize_to_unit_diameter,
    point_geometry_batch,
)

GAMMA_MAX = 6.0
D_STAR = 0.1
MAX_DRAWS = 2000
MAX_SAMPLE_ROUNDS = 1000  # candidate rounds per sample_interior call
FD_SAMPLES = 10  # points per kind for the analytic vs FD gradient check

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
    quality gates are rejected and retried. Up to a cyclic rotation of its
    vertex rows, every polygon is the one the same loop drew when the hull
    came from Qhull, so a seed keeps its polygon and sample streams.
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
    """Uniform interior samples at least ``margin`` from the boundary
    (default: the strict-interior tolerance), by bbox rejection.

    No point lies farther inside than the inradius, so a margin at or above
    it raises ValueError, as does one so close below it that
    MAX_SAMPLE_ROUNDS rounds of candidates do not yield ``count`` samples.
    """
    margin = p.eps_interior if margin is None else float(margin)
    x0, y0, x1, y1 = p.bbox
    out = np.empty((count, 2))
    have = 0
    for _ in range(MAX_SAMPLE_ROUNDS if margin < p.inradius else 0):
        if have == count:
            break
        cand = rng.uniform((x0, y0), (x1, y1), size=(2 * (count - have) + 16, 2))
        keep = cand[p.signed_boundary_distance(cand) > margin]
        take = min(count - have, keep.shape[0])
        out[have:have + take] = keep[:take]
        have += take
    if have < count or margin >= p.inradius:
        raise ValueError(f"margin {margin:g} is not safely below the inradius {p.inradius:g}")
    return out


@dataclass
class CheckCounter:
    name: str
    checked: int = 0
    violations: int = 0
    worst: float = 0.0

    def add(self, n_checked: int, bad: int, worst: float) -> None:
        self.checked += int(n_checked)
        self.violations += int(bad)
        if worst > self.worst:
            self.worst = float(worst)


class _CheckCounters(dict):
    """Counters by check name, each created the first time its check runs,
    so a report lists the checks in the order the audit runs them."""

    def __missing__(self, name: str) -> CheckCounter:
        counter = self[name] = CheckCounter(name)
        return counter


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


def _far_close_vertices(small_r: np.ndarray, big_a: np.ndarray) -> tuple[int, int]:
    """Count (wide angles, those with a close vertex off the wide edge).

    ``small_r`` and ``big_a`` are (n, m) vertex-major masks of vertices
    within h* and angles above alpha*; angle i spans the edge from vertex i
    to i + 1.
    """
    # per angle i, the close vertices other than i and i + 1
    off_edge = small_r.sum(axis=0) - small_r - np.roll(small_r, -1, axis=0)
    return int(np.count_nonzero(big_a)), int(np.count_nonzero(big_a & (off_edge > 0)))


def audit_polygon(
    p: Polygon,
    rng: np.random.Generator,
    samples: int,
    checks: _CheckCounters,
) -> None:
    """Run every audited property on one unit-diameter polygon.

    Each sample set gets one point geometry, which the geometric checks
    and both coordinate kinds read as (n, m) vertex-major planes. The sets
    keep a margin above the interior tolerance, so they go to the interior
    kernels unclassified; non-finite kernel output stops the audit.
    """
    gc: GeometricConstants = geometric_constants(p)
    n = p.n
    x = sample_interior(p, rng, samples, margin=1e-7 * p.diameter)
    g = point_geometry_batch(p, x)

    c = checks["angle sum 2pi"]
    err = np.abs(g.alpha.sum(axis=0) - 2.0 * np.pi)
    c.add(samples, np.count_nonzero(err > TOL_ANGLE_SUM), err.max())

    # The separation radius is computed as a supremum, so it can equal
    # d_min/2 exactly (the unit square does); the audited bound is <=.
    c = checks["h* at most half min vertex gap"]
    half = 0.5 * gc.d_min
    c.add(1, 0 if gc.h_star <= half * (1.0 + 1e-12) else 1, gc.h_star / half)

    small_r = g.r < gc.h_star * g.scale  # g.r is in frame units
    big_a = g.alpha > gc.alpha_star

    c = checks["at most one vertex within h*"]
    cnt = small_r.sum(axis=0)
    c.add(samples, np.count_nonzero(cnt > 1), float(cnt.max()))

    c = checks["at most one angle above alpha*"]
    cnt = big_a.sum(axis=0)
    c.add(samples, np.count_nonzero(cnt > 1), float(cnt.max()))

    c = checks["close vertex belongs to the wide edge"]
    wide, bad = _far_close_vertices(small_r, big_a)
    c.add(wide if wide else samples, bad, float(bad))

    c = checks["close vertex has wide adjacent angles"]
    spread = (np.roll(g.alpha, 1, axis=0) + g.alpha)[small_r]
    if spread.size:
        viol = spread <= 2.0 * np.pi / 3.0
        c.add(spread.size, int(np.count_nonzero(viol)), float((2.0 * np.pi / 3.0 - spread).max()))
    else:
        c.add(samples, 0, 0.0)

    c = checks["grad alpha bounded by 1/r_i + 1/r_{i+1}"]
    bound = 1.0 / g.r + 1.0 / np.roll(g.r, -1, axis=0)
    rel = np.hypot(g.grad_alpha[0], g.grad_alpha[1]) / bound - 1.0
    c.add(samples * n, np.count_nonzero(rel > TOL_GRAD_ALPHA), rel.max())

    c = checks["ball below h* meets <= 2 adjacent edges"]
    hit = p.edge_distances(x) <= gc.h_star * (1.0 - 1e-9)
    cnt = hit.sum(axis=0)
    # two edges hit are adjacent when they are consecutive in the loop
    adjacent = (hit & np.roll(hit, -1, axis=0)).any(axis=0)
    bad = np.count_nonzero((cnt > 2) | ((cnt == 2) & ~adjacent))
    c.add(samples, bad, float(cnt.max()))

    c = checks["weight sum >= 2pi (unit diameter)"]
    wsum = _mvc_weights(g).sum(axis=0)
    wsum *= g.scale  # to caller units; in place, as a new array here added page faults
    c.add(samples, np.count_nonzero(wsum < 2.0 * np.pi - TOL_WEIGHT_SUM),
          float((2.0 * np.pi - wsum).max()))

    # Gradient identities are evaluated on their own, less boundary-hugging
    # sample set: the quotient rule runs through intermediates that grow
    # like 1/distance, so the identity residual picks up roundoff roughly
    # like eps/distance^1.5 and a 1e-9 tolerance is only meaningful with
    # some standoff. Values are identity-protected and keep the tight set.
    xg = sample_interior(p, rng, samples, margin=1e-3 * p.diameter)
    gg = point_geometry_batch(p, xg)
    # one FD sample set per kind, drawn in the order the seeded reports
    # have always used; a single geometry serves both sets
    xf = [sample_interior(p, rng, FD_SAMPLES, margin=0.01 * p.diameter) for _ in KINDS]
    gf = point_geometry_batch(p, np.concatenate(xf))
    vt = p.vertices.T  # vt @ lam is sum_i v_i lambda_i, one row per coordinate

    for k, kind in enumerate(KINDS):
        lam, _ = interior_coordinates(p, g, kind, gradients=False)

        c = checks[f"nonnegative ({kind})"]
        c.add(samples * n, np.count_nonzero(lam < TOL_NONNEGATIVE), float((-lam).max()))

        c = checks[f"partition of unity ({kind})"]
        err = np.abs(lam.sum(axis=0) - 1.0)
        c.add(samples, np.count_nonzero(err > TOL_PARTITION), err.max())

        c = checks[f"linear precision ({kind})"]
        err = np.abs(vt @ lam - x.T).max(axis=0)
        c.add(samples, np.count_nonzero(err > TOL_LINEAR_PRECISION * p.diameter), err.max())

        _, glam = interior_coordinates(p, gg, kind, gradients=True)

        c = checks[f"grad sum zero ({kind})"]
        err = np.abs(glam.sum(axis=1)).max(axis=0)
        c.add(samples, np.count_nonzero(err > TOL_GRAD_SUM), err.max())

        c = checks[f"grad linear precision ({kind})"]
        # jac[b, a] = sum_i v_i,a d(lambda_i)/dx_b, the identity exactly
        jac = vt @ glam
        err = np.abs(jac - np.eye(2)[:, :, None]).max(axis=(0, 1))
        c.add(samples, np.count_nonzero(err > TOL_GRAD_SUM), err.max())

        c = checks[f"analytic vs FD gradient ({kind})"]
        _, glam_f = interior_coordinates(p, gf, kind, gradients=True)
        ana = glam_f[:, :, k * FD_SAMPLES:(k + 1) * FD_SAMPLES]
        fd = fd_gradient(p, xf[k], kind=kind).transpose(2, 1, 0)
        rel = np.hypot(*(ana - fd)) / np.maximum(np.hypot(*ana), 0.01)
        c.add(FD_SAMPLES * n, np.count_nonzero(rel > TOL_FD_MATCH), rel.max())


def run_property_audit(
    n_polygons: int = 100,
    samples_per_polygon: int = 10_000,
    seed: int = 42,
) -> PropertyAuditReport:
    """Audit every property over freshly generated random polygons.

    Both counts must be at least 1; smaller counts raise ValueError.
    """
    if n_polygons < 1 or samples_per_polygon < 1:
        raise ValueError("polygon and sample counts must be at least 1")
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
