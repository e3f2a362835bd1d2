"""The four benchmark workloads: CLI arguments, inputs, reference results.

Each workload is one ``mvcoords`` subcommand at fixed arguments. Only
``properties`` and ``eval`` take anything from the benchmark seed: the
audit seed, and the polygon the ``eval`` lattice is laid over. The
``tiny`` size profile exists for the benchmark's self-test.

A check function returns one boolean per result check; a call that
exits nonzero, or whose output cannot be parsed, fails every check.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

# tests/test_fem.py::test_frozen_study_values (levels 2, 4, 8, 16)
FROZEN_L2 = {2: 3.528115534700e-03, 4: 8.661122819589e-04,
             8: 2.178271260571e-04, 16: 5.492196187167e-05}
FROZEN_H1 = {2: 7.571734796779e-02, 4: 3.605226659397e-02,
             8: 1.765062623080e-02, 16: 8.749081843892e-03}
FROZEN_RTOL = 1e-9
RATE_TOL = 0.05  # tail rates within this of 2 (L2) and 1 (H1)

# tests/test_acceptance.py criterion 3: grid 256, margin 1e-4
FROZEN_SWEEP = {
    (1.5, "mvc"): 1.27446, (1.5, "wachspress"): 1.98679,
    (1.1, "mvc"): 1.87957, (1.1, "wachspress"): 9.90669,
    (1.01, "mvc"): 2.02560, (1.01, "wachspress"): 97.28456,
    (1.001, "mvc"): 2.03013, (1.001, "wachspress"): 820.65010,
}
# grid 32, margin 1e-4; recorded from the same command for the self-test
TINY_SWEEP = {
    (1.5, "mvc"): 1.20589, (1.5, "wachspress"): 1.89936,
    (1.1, "mvc"): 1.66904, (1.1, "wachspress"): 9.38665,
}
SWEEP_RTOL = 1e-4

# cells are printed with 6 significant digits
PRINT_RTOL = 1e-5
PRINT_ATOL = 1e-12

AUDIT_ROWS = [
    "angle sum 2pi",
    "h* at most half min vertex gap",
    "at most one vertex within h*",
    "at most one angle above alpha*",
    "close vertex belongs to the wide edge",
    "close vertex has wide adjacent angles",
    "grad alpha bounded by 1/r_i + 1/r_{i+1}",
    "ball below h* meets <= 2 adjacent edges",
    "weight sum >= 2pi (unit diameter)",
] + [
    f"{check} ({kind})"
    for kind in ("mvc", "wachspress")
    for check in ("nonnegative", "partition of unity", "linear precision",
                  "grad sum zero", "grad linear precision", "analytic vs FD gradient")
]
AUDIT_ROW = re.compile(r"^  (.+?)\s+checked\s+(\d+)\s+violations\s+(\d+)\s+worst\s+\S+$")


class Workload:
    name = ""
    seeded = False  # whether the inputs depend on the seed

    def __init__(self, size: str = "full") -> None:
        self.size = size

    def out_path(self, workdir: Path) -> Path:
        return workdir / f"{self.name}.out"

    def argv(self, seed: int, workdir: Path) -> list[str]:
        raise NotImplementedError

    def make_inputs(self, seed: int, workdir: Path) -> None:
        """Write the input files the command reads (none by default)."""

    def items(self) -> int:
        """Input-size unit the throughput metric counts."""
        raise NotImplementedError

    def reference(self, seed: int, workdir: Path):
        """Reference results the checks compare against."""
        raise NotImplementedError

    def check(self, text: str | None, rc: int, ref) -> list[bool]:
        n = self.n_checks(ref)
        if rc != 0 or text is None:
            return [False] * n
        try:
            oks = self._check(text, ref)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            return [False] * n
        if len(oks) != n:
            return [False] * n
        return oks

    def n_checks(self, ref) -> int:
        raise NotImplementedError

    def _check(self, text: str, ref) -> list[bool]:
        raise NotImplementedError


class Converge(Workload):
    """Poisson convergence table: fem and interp do almost all the work."""

    name = "converge"

    @property
    def levels(self) -> list[int]:
        return [2, 4, 8, 16] if self.size == "tiny" else [2, 4, 8, 16, 32, 64, 128]

    def argv(self, seed, workdir):
        return ["converge", "--levels", ",".join(map(str, self.levels)),
                "--format", "json", "--out", str(self.out_path(workdir))]

    def items(self):
        return sum(n * n for n in self.levels)

    def reference(self, seed, workdir):
        return {"l2": FROZEN_L2, "h1": FROZEN_H1}

    def _tail_pairs(self) -> list[int]:
        # rates of level pairs whose finer mesh has n >= 16
        return [k for k in range(len(self.levels) - 1) if self.levels[k + 1] >= 16]

    def n_checks(self, ref):
        frozen = [n for n in self.levels if n in ref["l2"]]
        return 1 + 2 * len(frozen) + 2 * len(self._tail_pairs())

    def _check(self, text, ref):
        doc = json.loads(text)
        rows = {r["n"]: r for r in doc["levels"]}
        oks = [[r["n"] for r in doc["levels"]] == self.levels]
        for n in self.levels:
            if n in ref["l2"]:
                oks.append(math.isclose(rows[n]["l2_error"], ref["l2"][n], rel_tol=FROZEN_RTOL))
                oks.append(math.isclose(rows[n]["h1_error"], ref["h1"][n], rel_tol=FROZEN_RTOL))
        for k in self._tail_pairs():
            oks.append(abs(doc["l2_rates"][k] - 2.0) <= RATE_TOL)
            oks.append(abs(doc["h1_rates"][k] - 1.0) <= RATE_TOL)
        return oks


class PentagonStudy(Workload):
    """Criterion-3 sup-gradient scans: coords scan-grid bisection."""

    name = "pentagon-study"

    @property
    def frozen(self) -> dict:
        return TINY_SWEEP if self.size == "tiny" else FROZEN_SWEEP

    @property
    def apexes(self) -> list[float]:
        return sorted({a for a, _ in self.frozen}, reverse=True)

    def argv(self, seed, workdir):
        grid = "32" if self.size == "tiny" else "256"
        return ["pentagon-study", "--apex", ",".join(f"{a:g}" for a in self.apexes),
                "--grid", grid, "--margin", "1e-4", "--out", str(self.out_path(workdir))]

    def items(self):
        return len(self.frozen)  # one scan per (apex, kind)

    def reference(self, seed, workdir):
        return self.frozen

    def n_checks(self, ref):
        return 1 + len(ref)

    def _check(self, text, ref):
        rows = list(csv.DictReader(text.splitlines()))
        got = {(float(r["apex"]), r["kind"]): float(r["max_grad_norm"]) for r in rows}
        oks = [len(rows) == len(ref) and set(got) == set(ref)]
        for key, want in ref.items():
            oks.append(math.isclose(got[key], want, rel_tol=SWEEP_RTOL))
        return oks


class Properties(Workload):
    """Randomized property audit: audit layer and batched kernels."""

    name = "properties"
    seeded = True

    @property
    def counts(self) -> tuple[int, int]:
        return (3, 200) if self.size == "tiny" else (100, 10_000)

    def argv(self, seed, workdir):
        polygons, samples = self.counts
        return ["properties", "--polygons", str(polygons), "--samples", str(samples),
                "--seed", str(seed), "--out", str(self.out_path(workdir))]

    def items(self):
        polygons, samples = self.counts
        return polygons * samples

    def reference(self, seed, workdir):
        return AUDIT_ROWS

    def n_checks(self, ref):
        # names and header, then per row: zero violations and its count
        return 2 + 2 * len(ref) + 1

    def _check(self, text, ref):
        polygons, samples = self.counts
        lines = text.splitlines()
        rows = [AUDIT_ROW.match(line) for line in lines[1:-1]]
        names = [m.group(1) for m in rows]
        checked = {m.group(1): int(m.group(2)) for m in rows}
        violations = [int(m.group(3)) for m in rows]
        oks = [
            names == ref,
            lines[0].endswith(f"polygons={polygons} samples={samples}"),
        ]
        oks += [v == 0 for v in violations]
        # rows scaled by the total vertex count must agree on one total
        # within the 5..10 vertices a random polygon has
        vertices = checked["nonnegative (mvc)"] // samples
        per_vertex = {
            "grad alpha bounded by 1/r_i + 1/r_{i+1}": samples * vertices,
            "nonnegative (mvc)": samples * vertices,
            "nonnegative (wachspress)": samples * vertices,
            "analytic vs FD gradient (mvc)": 10 * vertices,
            "analytic vs FD gradient (wachspress)": 10 * vertices,
        }
        data_dependent = {"close vertex belongs to the wide edge",
                          "close vertex has wide adjacent angles"}
        for name in ref:
            if name == "h* at most half min vertex gap":
                oks.append(checked[name] == polygons)
            elif name in per_vertex:
                oks.append(checked[name] == per_vertex[name]
                           and 5 * polygons <= vertices <= 10 * polygons)
            elif name in data_dependent:
                oks.append(checked[name] >= polygons)
            else:
                oks.append(checked[name] == polygons * samples)
        oks.append(lines[-1] == "total violations: 0")
        return oks


class Eval(Workload):
    """Per-point lattice evaluation on a random polygon: one-point coords
    calls, with exception paths for outside points."""

    name = "eval"
    seeded = True

    @property
    def grid(self) -> int:
        return 16 if self.size == "tiny" else 128

    def polygon_path(self, workdir: Path) -> Path:
        return workdir / "eval_polygon.json"

    def argv(self, seed, workdir):
        return ["eval", "--polygon", str(self.polygon_path(workdir)),
                "--grid", str(self.grid), "--out", str(self.out_path(workdir))]

    def make_inputs(self, seed, workdir):
        from mvcoords.audit import random_convex_polygon
        from mvcoords.geometry import save_polygon

        save_polygon(random_convex_polygon(np.random.default_rng(seed)),
                     self.polygon_path(workdir))

    def items(self):
        return self.grid * self.grid

    def reference(self, seed, workdir):
        """Statuses, values and gradients from the batched coordinate calls."""
        from mvcoords.coords import mvc_gradients, mvc_values
        from mvcoords.geometry import load_polygon

        self.make_inputs(seed, workdir)
        p = load_polygon(self.polygon_path(workdir))
        x0, y0, x1, y1 = p.bbox
        gx, gy = np.meshgrid(np.linspace(x0, x1, self.grid), np.linspace(y0, y1, self.grid))
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        sd = p.signed_boundary_distance(pts)
        eps = p.eps_interior
        status = np.where(sd < -eps, "OutsidePolygon",
                          np.where(sd <= eps, "PointTooCloseToBoundary", "ok"))
        values = np.full((len(pts), p.n), np.nan)
        grads = np.full((len(pts), p.n, 2), np.nan)
        inside = sd >= -eps
        values[inside] = mvc_values(p, pts[inside])
        ok = status == "ok"
        grads[ok] = mvc_gradients(p, pts[ok]).gradients
        return {"polygon": p.vertices, "points": pts, "status": status,
                "values": values, "gradients": grads}

    def n_checks(self, ref):
        # header; per row status and cells; per ok row partition of unity
        # and linear precision
        return 1 + 2 * len(ref["points"]) + 2 * int(np.count_nonzero(ref["status"] == "ok"))

    def _check(self, text, ref):
        verts, pts = ref["polygon"], ref["points"]
        n, m = len(verts), len(pts)
        lines = text.splitlines()
        header = ["x", "y", "status"] + [
            f"{c}_{i}" for i in range(n) for c in ("lambda", "grad_x", "grad_y")]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != m or any(len(r) != 3 + 3 * n for r in rows):
            raise ValueError("unexpected row layout")
        status = np.array([r[2] for r in rows])
        num = np.array([[float(c) if c else np.nan for c in r[:2] + r[3:]] for r in rows])
        xy, got = num[:, :2], num[:, 2:]
        want = np.concatenate([ref["values"][:, :, None], ref["gradients"]], axis=2).reshape(m, -1)

        def close(a, b):
            return np.abs(a - b) <= PRINT_RTOL * np.abs(b) + PRINT_ATOL

        cells = np.where(np.isnan(want), np.isnan(got), close(got, want)).all(axis=1)
        cells &= close(xy, pts).all(axis=1)
        ok = ref["status"] == "ok"
        lam = got[ok][:, 0::3]
        unity = np.abs(lam.sum(axis=1) - 1.0) <= PRINT_RTOL * np.abs(lam).sum(axis=1) + PRINT_ATOL
        bound = PRINT_RTOL * (np.abs(lam) @ np.abs(verts)) + PRINT_ATOL
        linear = (np.abs(lam @ verts - pts[ok]) <= bound).all(axis=1)
        return ([lines[0].split(",") == header] + (status == ref["status"]).tolist()
                + cells.tolist() + unity.tolist() + linear.tolist())


WORKLOADS = {w.name: w for w in (Converge, PentagonStudy, Properties, Eval)}
