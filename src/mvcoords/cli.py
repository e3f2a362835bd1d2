"""Command line front end for the coordinate and solver tools.

Subcommands: ``eval`` dumps coordinate values and gradients at points,
``check-polygon`` reports quality constants against thresholds,
``pentagon-study`` compares sup-gradient growth across the flattening
pentagon family, ``converge`` runs the Poisson convergence study, and
``properties`` runs the randomized invariant audit.

Every command is deterministic given its flags; re-runs write
byte-identical output. Tables carry 6 significant digits, JSON carries
full precision.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .audit import D_STAR, GAMMA_MAX, run_property_audit
from .coords import (BAND, KINDS, MAX_GRID, NONFINITE, OK, OUTSIDE, STATUS_NAMES, evaluate,
                     sup_gradient_scan)
from .errors import NoConvergence
from .fem import convergence_study
from .geometry import (
    apex_pentagon,
    geometric_constants,
    load_polygon,
    normalize_to_unit_diameter,
)

# grid^2 * n: eval's memory grows with both, about 1.1 GB at this bound
MAX_GRID_VALUES = 10 * MAX_GRID**2


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bbox_lattice(p, n: int) -> np.ndarray:
    """n-by-n inclusive lattice over the bounding box, raster order."""
    x0, y0, x1, y1 = p.bbox
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _fill(fmt: str, table: np.ndarray):
    """CSV rows ``fmt % row`` over the columns of ``table``, one row tuple alive
    at a time: a live list per row would set off a full GC on a large grid."""
    return map(fmt.__mod__, zip(*table.tolist()))


def cmd_eval(args: argparse.Namespace) -> int:
    """Per-point CSV dump of coordinates and their gradients.

    Points that fail (outside the polygon, too close to the boundary for a
    gradient, or with non-finite interior values or gradients) keep their
    row with the failure named in the status column; the run continues.
    """
    fixed = []
    for text in args.point:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"--point wants X,Y, got {text!r}")
        fixed.append((float(parts[0]), float(parts[1])))
    if not fixed and not args.grid:
        raise ValueError("eval needs --point and/or --grid")
    if args.grid and not 2 <= args.grid <= MAX_GRID:
        raise ValueError(f"--grid must lie in 2..{MAX_GRID}")

    p = load_polygon(args.polygon)
    n = p.n
    if args.grid and args.grid**2 * n > MAX_GRID_VALUES:
        raise ValueError(f"--grid {args.grid} on {n} vertices needs {args.grid**2 * n} "
                         f"lattice values, more than the {MAX_GRID_VALUES} allowed")
    pts = np.asarray(fixed, dtype=float).reshape(-1, 2)
    if args.grid:
        pts = np.concatenate([pts, _bbox_lattice(p, args.grid)])

    ev = evaluate(p, pts, args.kind, gradients=True)

    lines = ["x,y,status" + "".join(f",lambda_{i},grad_x_{i},grad_y_{i}" for i in range(n))]
    lines += [""] * len(pts)
    # columns x, y, then lambda_i, grad_x_i, grad_y_i per vertex
    table = np.concatenate([pts.T, np.stack([ev.values, *ev.gradients], 1).reshape(3 * n, -1)])
    layouts = [(OK, ",%.6g,%.6g,%.6g" * n, slice(None)),
               (BAND, ",%.6g,," * n, np.r_[0, 1, 2:2 + 3 * n:3]),
               (OUTSIDE, "," * 3 * n, [0, 1]),
               (NONFINITE, "," * 3 * n, [0, 1])]
    for s, cells, cols in layouts:
        rows = np.flatnonzero(ev.status == s)
        fill = _fill(f"%.6g,%.6g,{STATUS_NAMES[s]}{cells}", table[cols][:, rows])
        for i, line in zip(rows.tolist(), fill):
            lines[1 + i] = line
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_check_polygon(args: argparse.Namespace) -> int:
    """Quality constants and PASS/FAIL against the supplied thresholds.

    Constants are reported after scaling the polygon to unit diameter, so
    the thresholds mean the same thing for every input. Exit code 0 only
    when both checks pass.
    """
    p = load_polygon(args.polygon)
    q = normalize_to_unit_diameter(p)
    gc = geometric_constants(q)
    g1 = gc.aspect_ratio <= args.gamma_star
    g2 = gc.d_min >= args.d_star
    lines = [
        f"vertices    {len(q.vertices)}",
        f"gamma       {gc.aspect_ratio:.6g}",
        f"d_min       {gc.d_min:.6g}",
        f"beta_min    {gc.beta_min:.6g}",
        f"beta_max    {gc.beta_max:.6g}",
        f"h_star      {gc.h_star:.6g}",
        f"alpha_star  {gc.alpha_star:.6g}",
        f"G1 (gamma <= {args.gamma_star:g}): {'PASS' if g1 else 'FAIL'}",
        f"G2 (d_min >= {args.d_star:g}): {'PASS' if g2 else 'FAIL'}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if g1 and g2 else 1


def cmd_pentagon_study(args: argparse.Namespace) -> int:
    """Sup-gradient comparison over the square-with-apex pentagon family.

    One CSV row per (apex, kind) pair. The optional surface dump writes the
    apex vertex's basis values and gradients on the interior part of a
    bounding-box lattice, for plotting.
    """
    pentagons = [(a, apex_pentagon(a)) for a in map(float, args.apex.split(","))]
    if not 8 <= args.grid <= MAX_GRID:
        raise ValueError(f"--grid must lie in 8..{MAX_GRID}")

    rows = ["apex,kind,max_grad_norm"]
    surface = ["apex,kind,x,y,lambda,grad_x,grad_y"] if args.surface else None
    for a, p in pentagons:
        for kind in KINDS:
            scan = sup_gradient_scan(p, kind=kind, resolution=args.grid, margin=args.margin)
            rows.append(f"{a:g},{kind},{scan.overall_max:.6g}")
            if surface is None:
                continue
            lattice = _bbox_lattice(p, args.grid)
            ev = evaluate(p, lattice, kind, gradients=True)
            ev.raise_first(NONFINITE)
            table = np.concatenate([lattice.T, ev.values[-1:], ev.gradients[:, -1]])  # apex is last
            surface += _fill(f"{a:g},{kind}" + ",%.6g" * 5, table[:, ev.status == OK])
    _emit("\n".join(rows) + "\n", args.out)
    if surface is not None:
        with open(args.surface, "w", encoding="utf-8") as fh:
            fh.write("\n".join(surface) + "\n")
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    """Poisson convergence table for the manufactured solution."""
    levels = [int(s) for s in args.levels.split(",")]
    if any(n < 1 or n > 128 for n in levels):
        raise ValueError("levels must lie in 1..128")
    report = convergence_study(levels)
    if args.format == "csv":
        text = report.to_csv()
    elif args.format == "md":
        text = report.to_markdown()
    else:
        text = report.to_json() + "\n"
    _emit(text, args.out)
    return 0


def cmd_properties(args: argparse.Namespace) -> int:
    """Randomized invariant audit; exit code 0 only with zero violations."""
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    report = run_property_audit(args.polygons, args.samples, args.seed)
    _emit(report.to_text(), args.out)
    return 0 if report.total_violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvcoords",
        description="Barycentric coordinate tools: evaluation dumps, polygon "
        "quality checks, gradient studies, a Poisson convergence table, and "
        "a property audit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="dump coordinate values and gradients at points")
    ev.add_argument("--polygon", required=True, help="polygon JSON file")
    ev.add_argument("--point", action="append", default=[], metavar="X,Y",
                    help="evaluation point, repeatable")
    ev.add_argument("--grid", type=int, default=0, metavar="N",
                    help="add an N-by-N bounding-box lattice of points")
    ev.add_argument("--kind", choices=KINDS, default="mvc")
    ev.set_defaults(func=cmd_eval)

    cp = sub.add_parser("check-polygon", help="quality constants and threshold checks")
    cp.add_argument("--polygon", required=True, help="polygon JSON file")
    cp.add_argument("--gamma-star", type=float, default=GAMMA_MAX,
                    help=f"largest acceptable aspect ratio (default {GAMMA_MAX:g})")
    cp.add_argument("--d-star", type=float, default=D_STAR,
                    help="smallest acceptable distance between two vertices at unit "
                    f"diameter (default {D_STAR:g})")
    cp.set_defaults(func=cmd_check_polygon)

    ps = sub.add_parser("pentagon-study", help="sup-gradient sweep over apex heights")
    ps.add_argument("--apex", default="1.5,1.05", metavar="H1,H2,...",
                    help="comma-separated apex heights, each > 1")
    ps.add_argument("--grid", type=int, default=64, help="scan resolution (default 64)")
    ps.add_argument("--margin", type=float, default=None,
                    help="boundary standoff (default 1e-4 of the diameter)")
    ps.add_argument("--surface", metavar="PATH",
                    help="also dump the apex basis surface to this CSV")
    ps.set_defaults(func=cmd_pentagon_study)

    cv = sub.add_parser("converge", help="Poisson convergence study table")
    cv.add_argument("--levels", default="2,4,8,16,32,64", metavar="N1,N2,...",
                    help="mesh sizes, strictly increasing, within 1..128")
    cv.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    cv.set_defaults(func=cmd_converge)

    pr = sub.add_parser("properties", help="randomized invariant audit")
    pr.add_argument("--seed", type=int, default=42)
    pr.add_argument("--polygons", type=int, default=100, metavar="COUNT")
    pr.add_argument("--samples", type=int, default=10_000, metavar="COUNT",
                    help="interior sample points per polygon")
    pr.set_defaults(func=cmd_properties)

    for parser in sub.choices.values():
        parser.add_argument("--out", help="output file (default stdout)")
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "-0.5,0.2" as an option name, so glue such a point to its flag
    for k in range(len(argv) - 2, -1, -1):
        if argv[k] == "--point" and argv[k + 1].startswith("-") and "," in argv[k + 1]:
            argv[k:k + 2] = [f"--point={argv[k + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, NoConvergence) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
