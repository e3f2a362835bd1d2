"""Randomized property audit: generator quality, determinism, controls."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvcoords import audit, coords
from mvcoords.audit import (
    ConvexHull,
    _far_close_vertices,
    _turn,
    random_convex_polygon,
    run_property_audit,
    sample_interior,
)
from mvcoords.cli import main
from mvcoords.errors import EvaluationError, PolygonError
from mvcoords.geometry import (
    Polygon,
    apex_pentagon,
    min_vertex_distance,
    normalize_to_unit_diameter,
    point_geometry_batch,
)

# the report lists the checks in the order the audit runs them
CHECK_NAMES = [
    "angle sum 2pi",
    "h* at most half min vertex gap",
    "at most one vertex within h*",
    "at most one angle above alpha*",
    "close vertex belongs to the wide edge",
    "close vertex has wide adjacent angles",
    "grad alpha bounded by 1/r_i + 1/r_{i+1}",
    "ball below h* meets <= 2 adjacent edges",
    "weight sum >= 2pi (unit diameter)",
    "nonnegative (mvc)",
    "partition of unity (mvc)",
    "linear precision (mvc)",
    "grad sum zero (mvc)",
    "grad linear precision (mvc)",
    "analytic vs FD gradient (mvc)",
    "nonnegative (wachspress)",
    "partition of unity (wachspress)",
    "linear precision (wachspress)",
    "grad sum zero (wachspress)",
    "grad linear precision (wachspress)",
    "analytic vs FD gradient (wachspress)",
]


def test_random_polygons_meet_quality_bounds():
    """Generated polygons are unit diameter, chunky, and well separated, so
    the audited properties apply to them without further screening."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_convex_polygon(rng)
        assert 5 <= len(p.vertices) <= 10
        assert p.diameter == pytest.approx(1.0, abs=1e-9)
        assert p.diameter / p.inradius < 6.0
        assert min_vertex_distance(p) >= 0.1


def star_points(rng: np.random.Generator) -> np.ndarray:
    """One star draw of ``random_convex_polygon``: 5..10 points at sorted
    random angles and radii in [0.4, 1)."""
    target = int(rng.integers(5, 11))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, target))
    rad = rng.uniform(0.4, 1.0, target)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def test_hull_matches_qhull_on_star_draws():
    """On 20,004 star draws (3,334 of each size 5..10) the chain finds
    Qhull's vertices in Qhull's counterclockwise cyclic order, starting at
    the lexicographically smallest vertex."""
    from scipy.spatial import ConvexHull as Qhull

    rng = np.random.default_rng(2024)
    for k in range(5, 11):
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, (3334, k)), axis=1)
        rad = rng.uniform(0.4, 1.0, (3334, k))
        for pts in np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1):
            hull, qhull = ConvexHull(pts).tolist(), Qhull(pts).vertices.tolist()
            assert hull[0] == min(range(k), key=lambda i: tuple(pts[i]))
            start = qhull.index(hull[0])
            assert qhull[start:] + qhull[:start] == hull


@pytest.mark.parametrize("points, want", [
    pytest.param([(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)],
                 [(0, 0), (2, 0), (2, 1), (0, 1)], id="collinear"),
    pytest.param([(1, 1), (0, 0), (1, 0), (0, 0), (0, 1), (1, 1), (1, 0)],
                 [(0, 0), (1, 0), (1, 1), (0, 1)], id="repeated"),
    pytest.param([(0, 1), (0, 0), (0.5, 0.5), (0, 0), (1, 0), (0.25, 0.25)],
                 [(0, 0), (1, 0), (0, 1)], id="repeated-and-collinear"),
    pytest.param([(3, 3), (1, 1), (2, 2), (0, 0), (1, 1)], [(0, 0), (3, 3)], id="all-collinear"),
    pytest.param([(0, 2), (0, 0), (0, 1)], [(0, 0), (0, 2)], id="all-collinear-vertical"),
    pytest.param([(2, 5), (2, 5), (2, 5)], [(2, 5)], id="all-repeated"),
    pytest.param([(2, 5)], [(2, 5)], id="one-point"),
])
def test_hull_drops_collinear_and_repeated_points(points, want):
    """Counterclockwise from the lexicographically smallest point, each
    corner once; a collinear set gives its two ends."""
    pts = np.array(points, dtype=float)
    assert [tuple(q) for q in pts[ConvexHull(pts)].tolist()] == want


def test_hull_turn_test_is_exact():
    """Points within a few ulps of (0.5, 0.5) against the line through
    (12, 12) and (24, 24), where the float cross gets the side wrong
    (Kettner et al., Comput. Geom. 40, 2008): the turn's sign is the exact
    one, and the middle point (12, 12) is a hull vertex of the triangle
    with (24, 0) exactly when it lies left of the line from p to (24, 24)."""
    q, r, s = (12.0, 12.0), (24.0, 24.0), (24.0, 0.0)
    ulp = np.spacing(0.5)
    float_wrong = 0
    for i in range(64):
        for j in range(64):
            p = (0.5 + i * ulp, 0.5 + j * ulp)
            exact = (Fraction(r[0]) - Fraction(p[0])) * (Fraction(q[1]) - Fraction(p[1])) - (
                (Fraction(r[1]) - Fraction(p[1])) * (Fraction(q[0]) - Fraction(p[0])))
            assert np.sign(float(_turn(p, r, q))) == np.sign(exact)
            naive = (r[0] - p[0]) * (q[1] - p[1]) - (r[1] - p[1]) * (q[0] - p[0])
            float_wrong += np.sign(naive) != np.sign(exact)
            hull = ConvexHull(np.array([p, q, r, s]))
            assert (1 in hull) == (exact > 0)
    assert float_wrong > 0


def test_random_polygons_are_the_qhull_draws_with_rotated_labels():
    """The first 50 polygons of seeds 42 and 3 are those of the same draw
    loop with Qhull's hull, bit for bit, up to a cyclic rotation of the
    vertex rows: Qhull starts its loop at an end of its first facet, the
    chain at the lexicographically smallest vertex."""
    from scipy.spatial import ConvexHull as Qhull

    def qhull_polygon(rng):
        while True:
            pts = star_points(rng)
            hull = Qhull(pts).vertices
            if len(hull) != len(pts):
                continue
            try:
                poly = normalize_to_unit_diameter(Polygon(pts[hull]))
            except PolygonError:
                continue
            if (poly.diameter / poly.inradius < audit.GAMMA_MAX
                    and min_vertex_distance(poly) > audit.D_STAR
                    and poly.interior_angles.max() <= np.pi - 1e-6):
                return poly

    for seed in (42, 3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            got, want = random_convex_polygon(rng).vertices, qhull_polygon(ref).vertices
            assert any(np.array_equal(np.roll(want, -k, axis=0), got) for k in range(len(want)))


def test_sample_interior_respects_margin():
    square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    rng = np.random.default_rng(11)
    pts = sample_interior(square, rng, 500, margin=0.05)
    assert pts.shape == (500, 2)
    dist = square.edge_distances(pts).min(axis=0)
    assert dist.min() >= 0.05 - 1e-12


def test_sample_interior_rejects_margin_at_inradius():
    """No point of the unit square (inradius 0.5) is 0.6 inside, so the
    rejection loop could never finish."""
    square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match=r"margin 0\.6 .* inradius 0\.5"):
        sample_interior(square, np.random.default_rng(0), 1, margin=0.6)


def test_sample_interior_draws_just_below_the_inradius():
    """A margin 1e-4 below the unit square's inradius leaves an inset of
    about 4e-8 of the square; the draw in it still returns every sample
    more than the margin inside, while the inradius itself and beyond
    still raise."""
    square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    pts = sample_interior(square, np.random.default_rng(0), 1000, margin=0.4999)
    assert pts.shape == (1000, 2)
    assert square.signed_boundary_distance(pts).min() > 0.4999
    for margin in (0.5, 0.6):
        with pytest.raises(ValueError, match=rf"margin {margin:g} .* inradius 0\.5"):
            sample_interior(square, np.random.default_rng(0), 1, margin=margin)


def test_inradius_and_every_inset_share_one_sweep(monkeypatch):
    """The inward-offset sweep runs once per polygon: reading the inradius
    and then drawing at the audit's three margins reuses its table."""
    runs = []
    sweep = Polygon._sweep.func

    def counted(p):
        runs.append(p)
        return sweep(p)

    monkeypatch.setattr(Polygon._sweep, "func", counted)
    p = Polygon(random_convex_polygon(np.random.default_rng(3)).vertices)
    runs.clear()  # the draw read the inradius of polygons it made itself
    rng = np.random.default_rng(0)
    assert p.inradius > 0.0
    for margin in (1e-7, 1e-3, 1e-2):
        assert len(sample_interior(p, rng, 100, margin=margin * p.diameter)) == 100
    assert runs == [p]


@pytest.mark.parametrize(("count", "margin"), [
    (1000, -0.2), (1000, -np.inf), (1000, np.inf), (1000, np.nan), (-1, 0.1), (-1, None),
])
def test_sample_interior_rejects_bad_arguments(count, margin):
    """A negative margin would draw from an outset polygon, outside the
    triangle; a negative count has no meaning."""
    tri = Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match="finite margin >= 0 and a count >= 0"):
        sample_interior(tri, np.random.default_rng(0), count, margin=margin)


@given(k=st.integers(0, 11), fraction=st.floats(0.0, 0.999), seed=st.integers(0, 2**32 - 1))
def test_sample_interior_is_strictly_inside_the_margin(polygon_suite, k, fraction, seed):
    """Every sample lies more than the margin inside, by the package's own
    distance, at any margin up to 0.999 of the inradius."""
    p = polygon_suite[k]
    margin = fraction * p.inradius
    pts = sample_interior(p, np.random.default_rng(seed), 200, margin=margin)
    assert np.all(p.signed_boundary_distance(pts) > margin)


def test_sample_interior_is_strict_up_to_the_inradius(polygon_suite):
    """At margins from 2^-10 to a few ulps below the inradius a call either
    raises or returns samples all more than the margin inside: the draw
    keeps a few ulps of standoff from the inset's rounded edges, and an
    inset vertex between nearly parallel lines, placed only to eps over
    their sine, is checked (on the flatter apex pentagons it falls outside
    a sliver inset from about 2^-35 below the inradius on)."""
    square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    apexes = [apex_pentagon(1.0 + 10.0**-j) for j in range(3, 8)]
    drawn = 0
    for p in [square, *apexes, *polygon_suite]:
        for k in range(10, 54):
            margin = p.inradius * (1.0 - 2.0**-k)
            try:
                pts = sample_interior(p, np.random.default_rng(k), 500, margin=margin)
            except ValueError:
                continue
            drawn += 1
            assert np.all(p.signed_boundary_distance(pts) > margin), (p, k)
    assert drawn >= 18 * 25


def test_sample_interior_draw_count_depends_only_on_the_count(polygon_suite):
    """A call takes 3 * count uniforms whatever the polygon and margin, so
    one roundoff in the geometry cannot reshuffle later draws."""
    square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    for count in (0, 1, 17, 500):
        ref = np.random.default_rng(5)
        ref.random(3 * count)
        for p in [square, apex_pentagon(1.001), *polygon_suite[:4]]:
            for fraction in (0.0, 1e-7, 0.5, 0.999):
                rng = np.random.default_rng(5)
                sample_interior(p, rng, count, margin=fraction * p.inradius)
                assert rng.bit_generator.state == ref.bit_generator.state


# upper 0.1% points of chi-squared with 99 and 15 degrees of freedom
CHI2_99, CHI2_15 = 148.23, 37.70


def test_sample_interior_is_uniform_on_the_square():
    """Counts over a 10 x 10 grid of the inset [m, 1 - m]^2 pass a
    chi-squared test."""
    square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    m, n = 0.1, 20_000
    pts = sample_interior(square, np.random.default_rng(2), n, margin=m)
    cell = np.floor((pts - m) / (1.0 - 2.0 * m) * 10.0).astype(int)
    counts = np.bincount(cell[:, 0] * 10 + cell[:, 1], minlength=100)
    assert len(counts) == 100
    assert np.sum((counts - n / 100) ** 2 / (n / 100)) < CHI2_99


def test_sample_interior_is_uniform_on_a_triangle():
    """The inset of a triangle is the triangle shrunk about its incentre;
    counts over the 16 congruent triangles of its 4 x 4 subdivision pass a
    chi-squared test."""
    v = np.array([(0.0, 0.0), (1.0, 0.2), (0.3, 0.9)])
    tri = Polygon(v)
    side = np.hypot(*(np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)).T)  # opposite each vertex
    centre = side @ v / side.sum()
    m, n = 0.05, 16_000
    inner = centre + (v - centre) * (1.0 - m / tri.inradius)
    pts = sample_interior(tri, np.random.default_rng(4), n, margin=m)
    # barycentric coordinates in the inset, times 4: their floors name the cell
    bary = np.linalg.solve(np.vstack([inner.T, np.ones(3)]), np.vstack([pts.T, np.ones(n)]))
    assert bary.min() > -1e-12
    keys, counts = np.unique(np.floor(4.0 * bary).T.clip(0, 3), axis=0, return_counts=True)
    assert len(keys) == 16
    assert np.sum((counts - n / 16) ** 2 / (n / 16)) < CHI2_15


def test_sample_interior_picks_fan_triangles_by_area():
    """The trapezoid (0, 0), (2, 0), (1, 1), (0, 1) holds 2/3 of its area
    left of x = 1, and a fan from any corner cuts it into triangles of
    areas 1 and 1/2; picking them with equal odds would put 3/4 or 7/12
    of the samples there."""
    trap = Polygon([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    n = 20_000
    left = np.count_nonzero(sample_interior(trap, np.random.default_rng(6), n)[:, 0] < 1.0)
    assert (left - 2 * n / 3) ** 2 / (2 * n / 9) < 10.83  # chi-squared, 1 degree, 0.1%


def test_small_audit_run_is_clean():
    report = run_property_audit(5, 300, seed=3)
    assert report.total_violations == 0
    assert [c.name for c in report.checks] == CHECK_NAMES
    by_name = {c.name: c for c in report.checks}
    # per-sample checks saw every sample, per-polygon checks one per polygon
    assert by_name["angle sum 2pi"].checked == 5 * 300
    assert by_name["h* at most half min vertex gap"].checked == 5


def test_every_row_counts_the_cases_it_checked(monkeypatch):
    """A row's count is the size of the residual it tallied, so a residual
    of the wrong shape shows here: per sample, per sample and vertex, per
    FD sample and vertex, or once per polygon."""
    sizes = []

    def recorded(rng):
        p = random_convex_polygon(rng)
        sizes.append(p.n)
        return p

    monkeypatch.setattr(audit, "random_convex_polygon", recorded)
    polygons, samples = 3, 200
    checked = {c.name: c.checked for c in run_property_audit(polygons, samples, seed=3).checks}
    vertices = sum(sizes)
    assert len(sizes) == polygons
    data_dependent = ["close vertex belongs to the wide edge", "close vertex has wide adjacent angles"]
    want = dict.fromkeys(CHECK_NAMES, polygons * samples)
    want["h* at most half min vertex gap"] = polygons
    for name in ["grad alpha bounded by 1/r_i + 1/r_{i+1}", "nonnegative (mvc)", "nonnegative (wachspress)"]:
        want[name] = samples * vertices
    for kind in coords.KINDS:
        want[f"analytic vs FD gradient ({kind})"] = audit.FD_SAMPLES * vertices
    for name in data_dependent:
        assert checked.pop(name) >= polygons
        del want[name]
    assert checked == want


def test_nan_residual_is_a_violation(monkeypatch, capsys):
    """NaN fails every comparison, so a check would pass it unless NaN
    counts on its own: one NaN subtended angle gives the angle-sum row a
    violation and a NaN worst, and the command exit code 1."""
    calls = []

    def poisoned(p, points):
        g = point_geometry_batch(p, points)
        if not calls:
            g.alpha[0, 0] = np.nan  # vertex 0 at the first sample of the first polygon
        calls.append(len(points))
        return g

    monkeypatch.setattr(audit, "point_geometry_batch", poisoned)
    rc = main(["properties", "--polygons", "2", "--samples", "200", "--seed", "3"])
    row = next(line for line in capsys.readouterr().out.splitlines() if "angle sum 2pi" in line)
    assert int(row.split("violations")[1].split()[0]) >= 1
    assert row.endswith("worst nan")
    assert rc == 1


def test_close_vertex_rows_with_nothing_to_check(monkeypatch, capsys):
    """With h* far below the sample margin and alpha* at pi, no sample has
    a close vertex or a wide angle, so the two close-vertex rows test no
    case: each counts none and the audit still completes."""
    real = audit.geometric_constants

    def shrunk(p):
        return dataclasses.replace(real(p), h_star=1e-12 * p.diameter, alpha_star=np.pi)

    monkeypatch.setattr(audit, "geometric_constants", shrunk)
    rc = main(["properties", "--polygons", "3", "--samples", "200", "--seed", "3"])
    rows = {line.split("  checked")[0].strip(): line.split() for line in
            capsys.readouterr().out.splitlines() if "  checked " in line}
    for name in ["close vertex belongs to the wide edge", "close vertex has wide adjacent angles"]:
        assert rows[name][-5:] == ["0", "violations", "0", "worst", "0.000e+00"]
    assert rows["angle sum 2pi"][-5] == str(3 * 200)
    assert rc == 0


def test_audit_is_deterministic():
    a = run_property_audit(3, 200, seed=9)
    b = run_property_audit(3, 200, seed=9)
    assert a.to_text() == b.to_text()


def test_different_seeds_differ():
    a = run_property_audit(2, 200, seed=1)
    b = run_property_audit(2, 200, seed=2)
    assert a.to_text() != b.to_text()


def test_tampered_tolerance_reports_violations(monkeypatch):
    """Negative control: an absurd finite-difference tolerance must produce
    violations, proving the audit can actually fail."""
    monkeypatch.setattr(audit, "TOL_FD_MATCH", 1e-16)
    report = run_property_audit(2, 200, seed=3)
    assert report.total_violations > 0


@pytest.mark.parametrize("counts", [(0, 10), (1, 0), (-1, 10)])
def test_audit_needs_a_polygon_and_a_sample(counts):
    """A report with no polygons or no samples has no rows to print."""
    with pytest.raises(ValueError, match="at least 1"):
        run_property_audit(*counts)


def test_report_text_layout():
    report = run_property_audit(2, 100, seed=5)
    text = report.to_text()
    assert text.startswith("property audit: seed=5 polygons=2 samples=100")
    assert text.endswith("total violations: 0\n")
    assert "analytic vs FD gradient (wachspress)" in text


def test_far_close_vertices_matches_per_angle_loop():
    """The mask form of "close vertex belongs to the wide edge" gives each
    wide angle the same off-edge count as a loop over every wide angle."""
    rng = np.random.default_rng(3)
    for n in (3, 5, 8):
        # the masks are vertex-major, (n, m), drawn point by point
        small_r = (rng.random((400, n)) < 0.3).T
        big_a = (rng.random((400, n)) < 0.2).T
        off = []
        ii, cols = np.nonzero(big_a)
        for i, col in zip(ii, cols):
            js = np.nonzero(small_r[:, col])[0]
            off.append(int(np.count_nonzero((js != i) & (js != (i + 1) % n))))
        assert max(off) > 0
        assert _far_close_vertices(small_r, big_a).tolist() == off


@pytest.mark.parametrize("poisoned_call", [0, 1, 2, 3], ids=["x", "xg", "xf", "fd-stencil"])
def test_audit_rejects_non_finite_mean_value_weights(monkeypatch, poisoned_call):
    """A NaN weight in one sample would pass every check (NaN > tol is
    False), so the finiteness guard has to stop the audit on whichever
    mean value evaluation it reaches: values at x, gradients at xg and at
    the FD samples, or the FD stencil; its error names the point."""
    real = coords._mvc_weights
    calls = []

    def poisoned(g):
        w = real(g)
        if len(calls) == poisoned_call:
            w[0, 0] = np.nan  # vertex 0 at point 0
        calls.append(w.shape[1])
        return w

    monkeypatch.setattr(coords, "_mvc_weights", poisoned)
    with pytest.raises(EvaluationError, match=r"point index 0\b"):
        run_property_audit(1, 50)
    assert len(calls) == poisoned_call + 1


def _check_geometry_builds(monkeypatch, samples):
    """Run a two-polygon audit and check the points of its geometry builds,
    polygon by polygon: a block of the value samples x, the same block of
    the gradient samples xg, and in the first block the FD samples and one
    stencil of them per kind. The blocks cover x and xg in order, none
    holds more than _SCAN_BLOCK // n points, and nothing else is built.
    Returns each polygon's block count."""
    drawn, built = [], []

    def draw(p, rng, count, margin=None):
        drawn.append(sample_interior(p, rng, count, margin))
        return drawn[-1]

    def build(p, points):
        built.append((p.n, points))
        return point_geometry_batch(p, points)

    monkeypatch.setattr(audit, "sample_interior", draw)
    monkeypatch.setattr(audit, "point_geometry_batch", build)
    monkeypatch.setattr(coords, "point_geometry_batch", build)
    run_property_audit(2, samples)
    blocks = []
    for x, xg, xf in zip(drawn[::3], drawn[1::3], drawn[2::3]):
        n = built[0][0]
        xs, xgs = [built.pop(0)[1]], [built.pop(0)[1]]
        assert built.pop(0)[1] is xf
        for _ in coords.KINDS:
            assert built.pop(0)[1].shape == (4 * audit.FD_SAMPLES, 2)
        while sum(map(len, xs)) < samples:
            xs.append(built.pop(0)[1])
            xgs.append(built.pop(0)[1])
        assert np.array_equal(np.concatenate(xs), x)
        assert np.array_equal(np.concatenate(xgs), xg)
        assert max(map(len, xs + xgs)) <= coords._SCAN_BLOCK // n
        blocks.append(len(xs))
    assert len(drawn) == 6 and built == []
    return blocks


def test_audit_builds_five_point_geometries_per_polygon(monkeypatch):
    """Samples that fit one block: x, xg and the FD samples, which both
    kinds read, once each, plus one FD stencil per kind."""
    assert _check_geometry_builds(monkeypatch, 50) == [1, 1]


def test_audit_walks_its_samples_in_blocks(monkeypatch):
    """7000 samples take two or three blocks at 5 to 10 vertices: each
    block of x and xg gets its own geometry, the FD set still one."""
    assert min(_check_geometry_builds(monkeypatch, 7000)) >= 2


def test_report_does_not_depend_on_the_block_size(monkeypatch):
    """Counts add and worst cases take a maximum, so small ragged blocks
    (37 to 74 points at 10 down to 5 vertices) give the report of the
    default blocks, which hold each of these sample sets whole."""
    runs = [(3, 200, seed) for seed in range(10)] + [(10, 2000, 42)]
    want = [run_property_audit(*run).to_text() for run in runs]
    monkeypatch.setattr(audit, "_SCAN_BLOCK", 370)
    assert [run_property_audit(*run).to_text() for run in runs] == want


def test_audit_working_set_does_not_grow_with_the_sample_count():
    """Only the drawn sample sets grow with the count: every block's planes
    go before the next block's, so five times the samples stays well
    below twice the peak of traced allocations."""
    rng = np.random.default_rng(3)
    p = random_convex_polygon(rng)
    audit.audit_polygon(p, rng, 100, audit._CheckCounters())  # p's cached tables
    peaks = []
    for samples in (10_000, 50_000):
        tracemalloc.start()
        audit.audit_polygon(p, rng, samples, audit._CheckCounters())
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_samples_past_the_limit_are_an_error(monkeypatch, capsys):
    """A sample count one past MAX_SAMPLES exits with code 1 and an error
    line naming the count and the cap before any polygon is drawn, while
    the cap itself goes on to the first draw."""
    class Drawn(Exception):
        pass

    def refused(rng):
        raise Drawn

    monkeypatch.setattr(audit, "random_convex_polygon", refused)
    over = audit.MAX_SAMPLES + 1
    rc = main(["properties", "--polygons", "1", "--samples", str(over)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: ValueError: {over} samples per polygon, more than the "
            f"{audit.MAX_SAMPLES} allowed\n")
    with pytest.raises(Drawn):
        run_property_audit(1, audit.MAX_SAMPLES)
