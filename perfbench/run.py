"""Benchmark of the mvcoords command line tool.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``converge``, ``pentagon-study``,
``properties`` and ``eval``. Each call runs one ``mvcoords`` subcommand
at fixed arguments in a fresh child process, one at a time, and checks
its output against reference results. The seeded workloads draw new
inputs from the run's seed for every call. A run first starts a few set-up
probes (process start, imports, input generation), then repeats the call
while at least half of the next one is predicted to fit in ``--seconds``;
it always makes at least one call.

With ``--trace 0`` the run reports the end-to-end metrics, each the
median over the run's calls. With ``--trace 1`` it alternates untraced
and traced calls and reports the per-layer metrics of the traced calls
(see ``spans.py``), a coverage report, and the difference between the
traced and untraced wall times as ``trace_overhead_s``.

Stdout carries an environment line, a summary, and as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` (result
checks) and ``metrics``. Scratch files live in a ``.perfbench-*``
directory at the repository root, removed at exit. The exit code is
nonzero, with no result printed, when the run cannot measure anything.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, layer_metrics
from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
# A seeded workload draws fresh inputs for every round of a run, so a run's
# median does not rest on one draw.
ROUNDS_PER_SEED = 1000
CHILD_TIMEOUT_S = 170
COVERAGE_RTOL = 1e-3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The run cannot produce a measurement."""


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def spawn(spec: dict) -> dict | None:
    """Run one child process; its report plus ``setup_s``, or None if the
    child ended without a report."""
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - t0
    return report


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> None:
        self.workload = WORKLOADS[name](size)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setups: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def input_seed(self, round_: int) -> int:
        """Seed of the inputs of one round; both calls of a traced round
        share it, so their wall times compare."""
        return self.seed * ROUNDS_PER_SEED + round_

    def _spec(self, workdir: Path, seed: int, mode: str, traced: bool) -> dict:
        return {"workload": self.workload.name, "size": self.workload.size,
                "seed": seed, "workdir": str(workdir), "mode": mode, "trace": traced}

    def _call(self, workdir: Path, seed: int, ref, traced: bool) -> None:
        out = self.workload.out_path(workdir)
        out.unlink(missing_ok=True)
        report = spawn(self._spec(workdir, seed, "call", traced))
        text = out.read_text(encoding="utf-8") if out.is_file() else None
        oks = self.workload.check(text, report["rc"] if report else -1, ref)
        if report and traced:
            wall = report["wall_s"]
            layers = layer_metrics(report["trace"], wall)
            covered = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
            report["layers"] = layers
            report["covered_s"] = covered
            oks.append(abs(covered + layers["other.self_s"] - wall) <= COVERAGE_RTOL * wall)
        self.attempted += len(oks)
        self.failed += oks.count(False)
        if report is None:
            return
        self.setups.append(report["setup_s"])
        (self.traced if traced else self.untraced).append(report)

    def execute(self, workdir: Path) -> None:
        for _ in range(SETUP_PROBES):
            report = spawn(self._spec(workdir, self.input_seed(0), "probe", False))
            if report is None:
                raise BenchError("set-up probe failed")
            self.setups.append(report["setup_s"])
        modes = (False, True) if self.trace else (False,)
        start = time.monotonic()
        rounds: list[float] = []
        while True:
            t0 = time.monotonic()
            seed = self.input_seed(len(rounds))
            ref = self.workload.reference(seed, workdir)
            for traced in modes:
                self._call(workdir, seed, ref, traced)
            rounds.append(time.monotonic() - t0)
            # start another round if at least half of it fits in the time left
            if time.monotonic() + 0.5 * statistics.median(rounds) > start + self.seconds:
                break
        if not self.untraced or (self.trace and not self.traced):
            raise BenchError("no call of the workload completed")

    def end_to_end(self) -> dict[str, float]:
        items = self.workload.items()
        calls = self.untraced
        return {
            "wall_s": statistics.median(c["wall_s"] for c in calls),
            "setup_s": statistics.median(self.setups),
            "cpu_s": statistics.median(c["cpu_s"] for c in calls),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
            "items_per_s": statistics.median(items / c["wall_s"] for c in calls),
        }

    def per_layer(self) -> dict[str, float]:
        out = {}
        for name in PER_LAYER:
            values = [c["layers"][name] for c in self.traced if name in c["layers"]]
            if values:
                out[name] = statistics.median(values)
        untraced = statistics.median(c["wall_s"] for c in self.untraced)
        out["trace_overhead_s"] = out["trace.wall_s"] - untraced
        out["fail_frac"] = self.failed / self.attempted
        return out

    def result(self) -> dict:
        if self.trace:
            values = self.per_layer()
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            values = self.end_to_end()
            units = {k: v[0] for k, v in END_TO_END.items()}
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }

    def summary(self) -> list[str]:
        lines = [f"workload {self.workload.name} seed {self.seed}: "
                 f"{len(self.untraced)} untraced and {len(self.traced)} traced calls, "
                 f"{len(self.setups)} set-ups, {self.failed}/{self.attempted} checks failed"]
        walls = sorted(c["wall_s"] for c in self.untraced)
        lines.append(f"  untraced wall_s min {walls[0]:.4f} median "
                     f"{statistics.median(walls):.4f} max {walls[-1]:.4f}")
        if self.trace:
            layers = self.per_layer()
            lines.append("  coverage of the traced wall time (median over traced calls):")
            for layer in LAYERS + ("other",):
                lines.append(f"    {layer:<9} self {layers[f'{layer}.self_s']:.4f} s")
            for c in self.traced:
                total = c["covered_s"] + c["layers"]["other.self_s"]
                lines.append(f"    call: layers + other {total:.6f} s, traced wall "
                             f"{c['wall_s']:.6f} s")
            lines.append(f"  trace_overhead_s {layers['trace_overhead_s']:.4f} "
                         f"(traced minus untraced median wall)")
        return lines


def use_sources() -> None:
    """Make the package importable here; reference results need it."""
    if not (SRC / "mvcoords" / "cli.py").is_file():
        raise BenchError(f"no mvcoords sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Run:
    use_sources()
    compileall.compile_dir(SRC, quiet=1)
    bench = Run(name, seed, seconds, trace, size)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench.execute(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be non-negative and --seconds at least 1")
    env = environment()
    # end like an interrupt, so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        bench = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": env}))
    print("\n".join(bench.summary()))
    print(json.dumps(bench.result()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
