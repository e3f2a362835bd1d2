"""Randomized property audits.

Generates quality-controlled convex polygons, samples interior points,
and counts violations of the geometric and barycentric properties the
rest of the package relies on. Everything is deterministic for a fixed
seed, so audit reports can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .coords import _kernel, _mvc_weights, fd_gradient
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
KINDS = ("mvc", "wachspress")
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


def random_convex_polygon(rng: np.random.Generator) -> Polygon:
    """Random unit-diameter convex polygon with 5..10 vertices meeting the
    aspect-ratio bound (gamma < GAMMA_MAX) and the pairwise vertex
    separation bound (> D_STAR).

    Vertices are drawn on a random-radius star around the origin and
    passed through a convex hull; draws failing the vertex-count or
    quality gates are rejected and retried.
    """
    for _ in range(MAX_DRAWS):
        target = int(rng.integers(5, 11))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, target))
        rad = rng.uniform(0.4, 1.0, target)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        hull = ConvexHull(pts)
        if len(hull.vertices) != target:
            continue
        try:
            poly = Polygon(pts[hull.vertices])
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
    (default: the strict-interior tolerance), by bbox rejection."""
    margin = p.eps_interior if margin is None else float(margin)
    x0, y0, x1, y1 = p.bbox
    out = np.empty((count, 2))
    have = 0
    while have < count:
        cand = rng.uniform((x0, y0), (x1, y1), size=(2 * (count - have) + 16, 2))
        keep = cand[p.signed_boundary_distance(cand) > margin]
        take = min(count - have, keep.shape[0])
        out[have:have + take] = keep[:take]
        have += take
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


def _adjacent(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    d = (i - j) % n
    return (d == 1) | (d == n - 1) | (d == 0)


def _far_close_vertices(small_r: np.ndarray, big_a: np.ndarray) -> tuple[int, int]:
    """Count (wide angles, those with a close vertex off the wide edge).

    ``small_r`` and ``big_a`` are (m, n) masks of vertices within h* and
    angles above alpha*; angle i spans the edge from vertex i to i + 1.
    """
    rows, ii = np.nonzero(big_a)
    k = np.arange(len(rows))
    far = small_r[rows]
    far[k, ii] = False
    far[k, (ii + 1) % small_r.shape[1]] = False
    return len(rows), int(np.count_nonzero(far.any(axis=1)))


def audit_polygon(
    p: Polygon,
    rng: np.random.Generator,
    samples: int,
    checks: _CheckCounters,
) -> None:
    """Run every audited property on one unit-diameter polygon.

    Each sample set gets one point geometry, which the geometric checks
    and both coordinate kinds read. The sets keep a margin above the
    interior tolerance, so they go to the interior kernels unclassified;
    the kernels still reject non-finite output.
    """
    gc: GeometricConstants = geometric_constants(p)
    n = p.n
    x = sample_interior(p, rng, samples, margin=1e-7 * p.diameter)
    g = point_geometry_batch(p, x)

    c = checks["angle sum 2pi"]
    err = np.abs(g.alpha.sum(axis=1) - 2.0 * np.pi)
    c.add(samples, np.count_nonzero(err > TOL_ANGLE_SUM), err.max())

    # The separation radius is computed as a supremum, so it can equal
    # d_min/2 exactly (the unit square does); the audited bound is <=.
    c = checks["h* at most half min vertex gap"]
    half = 0.5 * gc.d_min
    c.add(1, 0 if gc.h_star <= half * (1.0 + 1e-12) else 1, gc.h_star / half)

    small_r = g.r < gc.h_star
    big_a = g.alpha > gc.alpha_star

    c = checks["at most one vertex within h*"]
    cnt = small_r.sum(axis=1)
    c.add(samples, np.count_nonzero(cnt > 1), float(cnt.max()))

    c = checks["at most one angle above alpha*"]
    cnt = big_a.sum(axis=1)
    c.add(samples, np.count_nonzero(cnt > 1), float(cnt.max()))

    c = checks["close vertex belongs to the wide edge"]
    wide, bad = _far_close_vertices(small_r, big_a)
    c.add(wide if wide else samples, bad, float(bad))

    c = checks["close vertex has wide adjacent angles"]
    rows, ii = np.nonzero(small_r)
    if len(rows):
        spread = g.alpha[rows, (ii - 1) % n] + g.alpha[rows, ii]
        viol = spread <= 2.0 * np.pi / 3.0
        c.add(len(rows), int(np.count_nonzero(viol)), float((2.0 * np.pi / 3.0 - spread).max()))
    else:
        c.add(samples, 0, 0.0)

    c = checks["grad alpha bounded by 1/r_i + 1/r_{i+1}"]
    bound = 1.0 / g.r + 1.0 / np.roll(g.r, -1, axis=1)
    norm = np.hypot(g.grad_alpha[:, :, 0], g.grad_alpha[:, :, 1])
    rel = norm / bound - 1.0
    c.add(samples * n, np.count_nonzero(rel > TOL_GRAD_ALPHA), rel.max())

    c = checks["ball below h* meets <= 2 adjacent edges"]
    h_test = gc.h_star * (1.0 - 1e-9)
    dist = p.edge_distances(x)
    hit = dist <= h_test
    cnt = hit.sum(axis=1)
    bad = np.count_nonzero(cnt > 2)
    two = np.nonzero(cnt == 2)[0]
    if len(two):
        first = np.argmax(hit[two], axis=1)
        last = n - 1 - np.argmax(hit[two][:, ::-1], axis=1)
        bad += int(np.count_nonzero(~_adjacent(first, last, n)))
    c.add(samples, bad, float(cnt.max()))

    c = checks["weight sum >= 2pi (unit diameter)"]
    wsum = _mvc_weights(g).sum(axis=1)
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

    for k, kind in enumerate(KINDS):
        kernel = _kernel(p, kind)
        lam = kernel(p, g, gradients=False).values

        c = checks[f"nonnegative ({kind})"]
        c.add(samples * n, np.count_nonzero(lam < TOL_NONNEGATIVE), float((-lam).max()))

        c = checks[f"partition of unity ({kind})"]
        err = np.abs(lam.sum(axis=1) - 1.0)
        c.add(samples, np.count_nonzero(err > TOL_PARTITION), err.max())

        c = checks[f"linear precision ({kind})"]
        err = np.abs(lam @ p.vertices - x).max(axis=1)
        c.add(samples, np.count_nonzero(err > TOL_LINEAR_PRECISION * p.diameter), err.max())

        glam = kernel(p, gg, gradients=True).gradients

        c = checks[f"grad sum zero ({kind})"]
        err = np.abs(glam.sum(axis=1)).max(axis=1)
        c.add(samples, np.count_nonzero(err > TOL_GRAD_SUM), err.max())

        c = checks[f"grad linear precision ({kind})"]
        jac = np.einsum("ia,mib->mab", p.vertices, glam)
        err = np.abs(jac - np.eye(2)).reshape(samples, 4).max(axis=1)
        c.add(samples, np.count_nonzero(err > TOL_GRAD_SUM), err.max())

        c = checks[f"analytic vs FD gradient ({kind})"]
        ana = kernel(p, gf, gradients=True).gradients[k * FD_SAMPLES:(k + 1) * FD_SAMPLES]
        fd = fd_gradient(p, xf[k], kind=kind)
        num = np.hypot(*(ana - fd).transpose(2, 0, 1))
        den = np.maximum(np.hypot(*ana.transpose(2, 0, 1)), 0.01)
        rel = num / den
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
