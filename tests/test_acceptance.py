"""End-to-end acceptance gate: nine criteria, one pass/fail line each.

Each test prints its verdict on the live terminal (capture bypassed) so a
plain pytest run shows the per-criterion outcome inline.
"""

import json
import time

import numpy as np
import pytest

from mvcoords.audit import random_convex_polygon, run_property_audit, sample_interior
from mvcoords.cli import main as cli_main
from mvcoords.coords import (
    fd_gradient,
    mvc_gradients,
    mvc_values,
    sup_gradient_scan,
    wachspress_gradients,
    wachspress_values,
)
from mvcoords.fem import assemble, build_mesh, solution_errors, solve
from mvcoords.geometry import Polygon, apex_pentagon
from mvcoords.interp import estimate_ratio, fan_quadrature, field_linear, standard_fields

LEVELS = "2,4,8,16,32,64"
REFERENCE_L2_RATES = [2.03, 1.99, 1.99, 1.99, 1.99]
REFERENCE_H1_RATES = [1.07, 1.03, 1.01, 1.00, 1.00]
REFERENCE_N16_L2 = 5.50e-5
REFERENCE_N16_H1 = 8.73e-3

# pentagon sweep at grid 256, margin 1e-4: values frozen from the
# pre-build oracle run; the scan is deterministic
SWEEP_APEXES = (1.5, 1.1, 1.01, 1.001)
SWEEP_MVC = (1.27446, 1.87957, 2.02560, 2.03013)
SWEEP_WACHSPRESS = (1.98679, 9.90669, 97.28456, 820.65010)


@pytest.fixture
def verdict(capsys):
    def _verdict(num, ok, detail):
        with capsys.disabled():
            print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"criterion {num}: {detail}"
    return _verdict


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Desk-scale convergence study, run once through the CLI."""
    out = tmp_path_factory.mktemp("acceptance") / "study.json"
    t0 = time.perf_counter()
    rc = cli_main(["converge", "--levels", LEVELS, "--format", "json",
                   "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return json.loads(out.read_text()), elapsed


def test_criterion_1_convergence_rates(study, verdict):
    doc, elapsed = study
    l2, h1 = doc["l2_rates"], doc["h1_rates"]
    dev_l2 = max(abs(a - b) for a, b in zip(l2, REFERENCE_L2_RATES))
    dev_h1 = max(abs(a - b) for a, b in zip(h1, REFERENCE_H1_RATES))
    # pairs touching n >= 16 must sit at the asymptotic orders
    tail_ok = all(abs(r - 2.0) <= 0.05 for r in l2[2:]) and all(
        abs(r - 1.0) <= 0.05 for r in h1[2:]
    )
    ok = (len(l2) == 5 and dev_l2 <= 0.05 and dev_h1 <= 0.05
          and tail_ok and elapsed < 300.0)
    verdict(1, ok, f"rate deviation from the reference table: L2 {dev_l2:.3f}, "
                   f"H1 {dev_h1:.3f} (<= 0.05), runtime {elapsed:.1f}s")


def test_criterion_2_absolute_errors(study, verdict):
    doc, _ = study
    row = next(r for r in doc["levels"] if r["n"] == 16)
    rl2 = row["l2_error"] / REFERENCE_N16_L2
    rh1 = row["h1_error"] / REFERENCE_N16_H1
    ok = 1.0 / 3.0 < rl2 < 3.0 and 1.0 / 3.0 < rh1 < 3.0
    verdict(2, ok, f"n=16 error vs reference: L2 ratio {rl2:.4f}, "
                   f"H1 ratio {rh1:.4f} (gate: factor 3)")


def test_criterion_3_gradient_boundedness(verdict):
    mvc, wach = [], []
    for apex in SWEEP_APEXES:
        p = apex_pentagon(apex)
        mvc.append(sup_gradient_scan(p, "mvc", 256, 1e-4).overall_max)
        wach.append(sup_gradient_scan(p, "wachspress", 256, 1e-4).overall_max)
    frozen_ok = np.allclose(mvc, SWEEP_MVC, rtol=1e-4) and np.allclose(
        wach, SWEEP_WACHSPRESS, rtol=1e-4
    )
    spread = max(mvc) / min(mvc)
    growth = wach[-1] / wach[0]
    ok = frozen_ok and spread < 2.0 and growth > 10.0
    verdict(3, ok, f"MVC sup-gradient spread {spread:.2f}x (< 2), Wachspress "
                   f"growth {growth:.0f}x (> 10), frozen values "
                   f"{'reproduced' if frozen_ok else 'MISSED'}")


def test_criterion_4_gradient_correctness(verdict):
    rng = np.random.default_rng(20240816)
    worst = 0.0
    for _ in range(100):
        p = random_convex_polygon(rng)
        pts = sample_interior(p, rng, 1000, margin=0.01 * p.diameter)
        for kind, grad_fn in (("mvc", mvc_gradients),
                              ("wachspress", wachspress_gradients)):
            ana = grad_fn(p, pts).gradients
            fd = fd_gradient(p, pts, kind=kind)
            num = np.hypot(*(ana - fd).transpose(2, 0, 1))
            den = np.maximum(np.hypot(*ana.transpose(2, 0, 1)), 0.01)
            worst = max(worst, float((num / den).max()))
    ok = worst < 1e-6
    verdict(4, ok, f"worst analytic-vs-FD relative error {worst:.3e} over "
                   f"2 kinds x 100 polygons x 1000 points (< 1e-6)")


def test_criterion_5_barycentric_suite(verdict):
    rng = np.random.default_rng(555)
    bad = 0
    worst = 0.0

    def check(residual, tolerance):
        nonlocal bad, worst
        worst = max(worst, residual / tolerance)
        if residual > tolerance:
            bad += 1

    pairs = ((mvc_values, mvc_gradients), (wachspress_values, wachspress_gradients))
    eye = np.eye(2)
    polygons = [random_convex_polygon(rng) for _ in range(20)]
    for p in polygons:
        x = sample_interior(p, rng, 500)
        xg = sample_interior(p, rng, 200, margin=1e-3 * p.diameter)
        centroid = p.vertices.mean(axis=0)
        for val_fn, grad_fn in pairs:
            lam = val_fn(p, x)
            check(max(0.0, -float(lam.min())), 1e-12)                # nonnegative
            check(float(np.abs(lam.sum(axis=1) - 1.0).max()), 1e-12)  # unity
            check(float(np.abs(lam @ p.vertices - x).max()), 1e-12)   # linear
            # vertex limits: the deviation from the vertex delta must both
            # land inside tolerance and shrink with the approach offset
            # (linearly, with a polygon-dependent constant)
            dev = []
            for delta in (1e-7, 1e-8):
                near = p.vertices + delta * (centroid - p.vertices)
                dev.append(float(np.abs(val_fn(p, near) - np.eye(p.n)).max()))
            check(dev[1], 1e-5)
            check(dev[1] / max(dev[0], 1e-15), 0.3)
            g = grad_fn(p, xg).gradients
            check(float(np.abs(g.sum(axis=1)).max()), 1e-9)
            jac = np.einsum("ia,qib->qab", p.vertices, g)
            check(float(np.abs(jac - eye).max()), 1e-9)

    # invariance under 100 random scale/rotation/translation maps
    for p in polygons[:5]:
        pts = sample_interior(p, rng, 25, margin=1e-3 * p.diameter)
        base = mvc_gradients(p, pts)
        for _ in range(20):
            s = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            c, t = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -t], [t, c]])
            shift = rng.uniform(-5.0, 5.0, 2)
            q = Polygon(s * p.vertices @ rot.T + shift)
            mapped = mvc_gradients(q, s * pts @ rot.T + shift)
            check(float(np.abs(mapped.values - base.values).max()), 1e-12)
            back = s * mapped.gradients @ rot  # undo rotation and scale
            check(float(np.abs(back - base.gradients).max()), 1e-9)

    ok = bad == 0
    verdict(5, ok, f"{bad} violations, worst residual at {worst:.3f} of its "
                   f"tolerance (value/limit properties, gradient identities, 100 similarities)")


def test_criterion_6_triangle_oracle(verdict):
    rng = np.random.default_rng(777)
    worst_value = worst_grad = 0.0
    accepted = 0
    while accepted < 100:
        verts = rng.uniform(-1.0, 1.0, (3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        if e1[0] * e2[1] - e1[1] * e2[0] < 0.0:
            verts = verts[::-1]
        tri = Polygon(verts)
        if tri.inradius / tri.diameter < 0.1:
            continue  # keep the areal system well conditioned
        accepted += 1
        pts = sample_interior(tri, rng, 50, margin=1e-3 * tri.diameter)
        v0, v1, v2 = tri.vertices
        t_inv = np.linalg.inv(np.column_stack([v0 - v2, v1 - v2]))
        lam01 = (pts - v2) @ t_inv.T
        lam_exact = np.column_stack([lam01, 1.0 - lam01.sum(axis=1)])
        grad_exact = np.vstack([t_inv, -t_inv.sum(axis=0)])
        for val_fn, grad_fn in ((mvc_values, mvc_gradients),
                                (wachspress_values, wachspress_gradients)):
            worst_value = max(worst_value, float(np.abs(val_fn(tri, pts) - lam_exact).max()))
            g = grad_fn(tri, pts).gradients
            worst_grad = max(worst_grad, float(np.abs(g - grad_exact).max()))
    ok = worst_value < 1e-10 and worst_grad < 1e-10
    verdict(6, ok, f"worst areal deviation over 100 triangles: values "
                   f"{worst_value:.3e}, gradients {worst_grad:.3e} (< 1e-10)")


def test_criterion_7_property_audit(verdict):
    report = run_property_audit(100, 10_000, seed=42)
    ok = report.total_violations == 0
    verdict(7, ok, f"{report.total_violations} violations across "
                   f"{len(report.checks)} audited properties, "
                   f"100 polygons x 10000 samples, seed 42")


def test_criterion_8_interpolation_ratio(verdict):
    rng = np.random.default_rng(888)
    worst_ratio = worst_drift = worst_linear = 0.0
    for _ in range(12):
        p = random_convex_polygon(rng)
        rule_2 = fan_quadrature(p, degree=8, subdivision=2)
        rule_3 = fan_quadrature(p, degree=8, subdivision=3)
        for u in standard_fields():
            ratio = estimate_ratio(p, u, rule_2)
            refined = estimate_ratio(p, u, rule_3)
            worst_ratio = max(worst_ratio, ratio)
            worst_drift = max(worst_drift, abs(refined - ratio) / ratio)
        linear = estimate_ratio(p, field_linear(1.0, -2.0, 3.0), rule_2)
        worst_linear = max(worst_linear, linear)
    ok = worst_ratio < 1.0 and worst_drift <= 0.10 and worst_linear <= 1e-12
    verdict(8, ok, f"largest ratio {worst_ratio:.4f} (< 1), refinement drift "
                   f"{100 * worst_drift:.2f}% (<= 10%), linear ratio "
                   f"{worst_linear:.1e} (<= 1e-12)")


def test_criterion_9_patch_test(verdict):
    u = field_linear(2.0, -3.0, 0.5)
    worst = 0.0
    for n in (2, 4, 8, 16, 32, 64):
        mesh = build_mesh(n)
        coeffs = solve(assemble(mesh, u), tol=1e-12)
        l2, h1 = solution_errors(mesh, coeffs, u)
        worst = max(worst, l2, h1)
    ok = worst <= 1e-9
    verdict(9, ok, f"worst affine reproduction error {worst:.3e} "
                   f"over levels 2..64 (<= 1e-9)")
