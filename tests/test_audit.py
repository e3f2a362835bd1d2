"""Randomized property audit: generator quality, determinism, controls."""

import numpy as np
import pytest

from mvcoords import audit, coords
from mvcoords.audit import (
    _far_close_vertices,
    random_convex_polygon,
    run_property_audit,
    sample_interior,
)
from mvcoords.errors import EvaluationError
from mvcoords.geometry import Polygon, min_vertex_distance, point_geometry_batch

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


def test_small_audit_run_is_clean():
    report = run_property_audit(5, 300, seed=3)
    assert report.total_violations == 0
    assert [c.name for c in report.checks] == CHECK_NAMES
    by_name = {c.name: c for c in report.checks}
    # per-sample checks saw every sample, per-polygon checks one per polygon
    assert by_name["angle sum 2pi"].checked == 5 * 300
    assert by_name["h* at most half min vertex gap"].checked == 5


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
    """The mask form of "close vertex belongs to the wide edge" counts the
    same violations as a loop over every wide angle."""
    rng = np.random.default_rng(3)
    for n in (3, 5, 8):
        # the masks are vertex-major, (n, m), drawn point by point
        small_r = (rng.random((400, n)) < 0.3).T
        big_a = (rng.random((400, n)) < 0.2).T
        bad = 0
        ii, cols = np.nonzero(big_a)
        for i, col in zip(ii, cols):
            js = np.nonzero(small_r[:, col])[0]
            bad += int(np.any((js != i) & (js != (i + 1) % n)))
        assert bad > 0
        assert _far_close_vertices(small_r, big_a) == (len(ii), bad)


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


def test_audit_builds_five_point_geometries_per_polygon(monkeypatch):
    """x, xg and the FD samples once each, plus one FD stencil per kind."""
    calls = []

    def counted(p, points):
        calls.append(len(points))
        return point_geometry_batch(p, points)

    monkeypatch.setattr(audit, "point_geometry_batch", counted)
    monkeypatch.setattr(coords, "point_geometry_batch", counted)
    run_property_audit(2, 50)
    assert calls == [50, 50, 20, 40, 40] * 2
