"""Metric definitions: name, unit, direction, and what each layer metric
should move.

``END_TO_END`` are measured with tracing off; ``PER_LAYER`` come from the
traced run. The last field of each ``PER_LAYER`` entry records the
end-to-end metric, and the workloads, that a change to that layer should
move; ``BENCHMARK.json`` carries only name, unit and direction, and the
self-test keeps the two in step.

The bounds are the widest allowed. The calls are long (one or two per
run for three of the workloads) and were measured on a shared two-core
machine where back-to-back identical calls differed by up to 40% in
time. Peak RSS of ``eval`` and ``properties`` moves with the drawn
polygons' vertex counts.
"""

from __future__ import annotations

END_TO_END = {
    # name: (unit, better, bound)
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "items_per_s": ("items/s", "higher", 0.25),
}

# name: (unit, better, moves) where moves maps an end-to-end metric to
# the workloads it should move on
PER_LAYER = {
    "cli.self_s": ("s", "lower", {"wall_s": ["eval"]}),
    "cli.coord_calls": ("count", "lower", {"wall_s": ["eval"]}),
    "coords.calls": ("count", "lower", {"wall_s": ["eval", "properties"]}),
    "coords.points": ("count", "lower", {"wall_s": ["eval", "properties"]}),
    "coords.self_s": ("s", "lower", {"wall_s": ["eval", "properties"]}),
    "coords.sup_gradient_scan.self_s": ("s", "lower", {"wall_s": ["pentagon-study"]}),
    "coords.fd_gradient.s": ("s", "lower", {"wall_s": ["properties"]}),
    "geometry.self_s": ("s", "lower", {"wall_s": ["pentagon-study", "properties"]}),
    "geometry.signed_boundary_distance.calls": ("count", "lower", {"wall_s": ["pentagon-study"]}),
    "geometry.signed_boundary_distance.s": ("s", "lower", {"wall_s": ["pentagon-study"]}),
    # the batch kernel runs once per level on converge: no move expected there
    "geometry.point_geometry_batch.calls": ("count", "lower",
                                            {"wall_s": ["properties", "pentagon-study"]}),
    "geometry.point_geometry_batch.points": ("count", "lower",
                                             {"wall_s": ["properties", "pentagon-study"]}),
    "geometry.point_geometry_batch.s": ("s", "lower",
                                        {"wall_s": ["properties", "pentagon-study"]}),
    "geometry.point_geometry_batch.points_per_s": ("points/s", "higher",
                                                   {"wall_s": ["properties", "pentagon-study"]}),
    "geometry.geometric_constants.s": ("s", "lower", {"wall_s": ["properties"]}),
    "interp.self_s": ("s", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "interp.fan_quadrature.s": ("s", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "interp.quad_points": ("count", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "interp.field_eval.s": ("s", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "interp.field_eval.points": ("count", "lower",
                                 {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.self_s": ("s", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.build_mesh.s": ("s", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.assemble.s": ("s", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.solve.s": ("s", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.solve.iterations": ("count", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.dofs": ("count", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.nnz": ("count", "lower", {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.solution_errors.self_s": ("s", "lower",
                                   {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.assemble.alloc_peak_mb": ("MB", "lower",
                                   {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "fem.solution_errors.alloc_peak_mb": ("MB", "lower",
                                          {"wall_s": ["converge"], "peak_rss_mb": ["converge"]}),
    "audit.self_s": ("s", "lower", {"wall_s": ["properties"]}),
    "audit.random_convex_polygon.s": ("s", "lower", {"wall_s": ["properties"]}),
    "audit.draw.accept_ratio": ("ratio", "higher", {"wall_s": ["properties"]}),
    "audit.sample_interior.s": ("s", "lower", {"wall_s": ["properties"]}),
    "audit.sample.accept_ratio": ("ratio", "higher", {"wall_s": ["properties"]}),
    "audit.audit_polygon.self_s": ("s", "lower", {"wall_s": ["properties"]}),
    "other.self_s": ("s", "lower", {"wall_s": ["converge", "pentagon-study", "properties", "eval"]}),
    "trace.wall_s": ("s", "lower", {"wall_s": ["converge", "pentagon-study", "properties", "eval"]}),
    "trace_overhead_s": ("s", "lower",
                         {"wall_s": ["converge", "pentagon-study", "properties", "eval"]}),
    "fail_frac": ("frac", "lower", {}),
}


def layer_metrics(trace: dict, traced_wall: float) -> dict[str, float]:
    """Per-layer metric values from one traced call (``trace_overhead_s``
    and ``fail_frac`` need the untraced calls and the checks)."""
    spans = trace["spans"]
    counters = trace["counters"]

    def span(key, field):
        return float(spans[key][field]) if key in spans else 0.0

    def ratio(num, den):
        return counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0

    coords = [s for s in spans.values() if s["layer"] == "coords"]
    pgb_points = span("geometry.point_geometry_batch", "points")
    pgb_s = span("geometry.point_geometry_batch", "total_s")
    out = {f"{layer}.self_s": s for layer, s in trace["layer_self_s"].items()}
    out.update({
        "cli.coord_calls": counters.get("cli.coord_calls", 0.0),
        "coords.calls": float(sum(s["calls"] for s in coords)),
        "coords.points": float(sum(s["points"] for s in coords)),
        "coords.sup_gradient_scan.self_s": span("coords.sup_gradient_scan", "self_s"),
        "coords.fd_gradient.s": span("coords.fd_gradient", "total_s"),
        "geometry.signed_boundary_distance.calls": span("geometry.signed_boundary_distance", "calls"),
        "geometry.signed_boundary_distance.s": span("geometry.signed_boundary_distance", "total_s"),
        "geometry.point_geometry_batch.calls": span("geometry.point_geometry_batch", "calls"),
        "geometry.point_geometry_batch.points": pgb_points,
        "geometry.point_geometry_batch.s": pgb_s,
        "geometry.point_geometry_batch.points_per_s": pgb_points / pgb_s if pgb_s else 0.0,
        "geometry.geometric_constants.s": span("geometry.geometric_constants", "total_s"),
        "interp.fan_quadrature.s": span("interp.fan_quadrature", "total_s"),
        "interp.quad_points": counters.get("interp.quad_points", 0.0),
        "interp.field_eval.s": span("interp.field_eval", "total_s"),
        "interp.field_eval.points": span("interp.field_eval", "points"),
        "fem.build_mesh.s": span("fem.build_mesh", "total_s"),
        "fem.assemble.s": span("fem.assemble", "total_s"),
        "fem.solve.s": span("fem.solve", "total_s"),
        "fem.solve.iterations": counters.get("fem.solve.iterations", 0.0),
        "fem.dofs": counters.get("fem.dofs", 0.0),
        "fem.nnz": counters.get("fem.nnz", 0.0),
        "fem.solution_errors.self_s": span("fem.solution_errors", "self_s"),
        "fem.assemble.alloc_peak_mb": counters.get("fem.assemble.alloc_peak_mb", 0.0),
        "fem.solution_errors.alloc_peak_mb": counters.get("fem.solution_errors.alloc_peak_mb", 0.0),
        "audit.random_convex_polygon.s": span("audit.random_convex_polygon", "total_s"),
        "audit.draw.accept_ratio": ratio("audit.draw.kept", "audit.draw.attempts"),
        "audit.sample_interior.s": span("audit.sample_interior", "total_s"),
        "audit.sample.accept_ratio": ratio("audit.sample.kept", "audit.sample.candidates"),
        "audit.audit_polygon.self_s": span("audit.audit_polygon", "self_s"),
        "other.self_s": traced_wall - span("cli.main", "total_s"),
        "trace.wall_s": traced_wall,
    })
    return out
