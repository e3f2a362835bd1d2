"""Self-test of the benchmark at tiny sizes (about a minute).

Run from the repository root: ``python3 perfbench/selftest.py``.
It checks that

1. every metric in ``BENCHMARK.json`` is emitted, with its unit, by
   every workload, untraced and traced, and that ``BENCHMARK.json``
   matches the tables in ``metrics.py``;
2. a corrupted reference result raises ``fail_frac`` on every workload;
3. a change of seed changes the inputs of ``properties`` and ``eval``
   and of no other workload.

Exit code 0 only if all pass.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads
from metrics import END_TO_END, PER_LAYER

SEED = 3
SECONDS = 1


def check_declared_metrics() -> list[str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    declared = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    if declared != END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    declared = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    if declared != {k: v[:2] for k, v in PER_LAYER.items()}:
        errors.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in doc["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return errors


def check_emitted_metrics() -> list[str]:
    errors = []
    for name in workloads.WORKLOADS:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            result = run.run(name, SEED, SECONDS, trace, "tiny").result()
            want = {k: v[0] for k, v in table.items()}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace={int(trace)}: metrics/units {got} != {want}")
            if not all(isinstance(m["value"], float) and np.isfinite(m["value"])
                       for m in result["metrics"].values()):
                errors.append(f"{name} trace={int(trace)}: non-finite metric value")
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace={int(trace)}: {result['failed']} checks failed")
    return errors


def _corrupt(cls):
    """Subclass of a workload whose reference result is perturbed."""

    class Corrupted(cls):
        def reference(self, seed, workdir):
            ref = super().reference(seed, workdir)
            if isinstance(ref, list):  # audit row names
                return ref[:-1] + [ref[-1] + " (renamed)"]
            if "l2" in ref:
                return {"l2": {n: 1.01 * v for n, v in ref["l2"].items()}, "h1": ref["h1"]}
            if "values" in ref:
                return dict(ref, values=1.01 * ref["values"])
            return {k: 1.01 * v for k, v in ref.items()}

    return Corrupted


def check_corrupted_reference() -> list[str]:
    errors = []
    for name, cls in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = _corrupt(cls)
        try:
            result = run.run(name, SEED, SECONDS, True, "tiny").result()
        finally:
            workloads.WORKLOADS[name] = cls
        frac = result["metrics"]["fail_frac"]["value"]
        if result["correct"] or not frac > 0.0:
            errors.append(f"{name}: corrupted reference left fail_frac at {frac}")
    return errors


def _inputs(workload, seed: int, workdir: Path) -> tuple:
    for f in workdir.iterdir():
        f.unlink()
    workload.make_inputs(seed, workdir)
    files = {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}
    return workload.argv(seed, workdir), files


def check_seed_inputs() -> list[str]:
    errors = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for name, cls in workloads.WORKLOADS.items():
            w = cls("tiny")
            changed = _inputs(w, 1, workdir) != _inputs(w, 2, workdir)
            if changed != w.seeded:
                errors.append(f"{name}: seed {'changes' if changed else 'keeps'} the inputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return errors


def main() -> int:
    run.use_sources()
    checks = [
        ("declared metrics match the tables", check_declared_metrics),
        ("every metric emitted with its unit", check_emitted_metrics),
        ("corrupted reference raises fail_frac", check_corrupted_reference),
        ("seed changes only properties and eval inputs", check_seed_inputs),
    ]
    failed = 0
    for title, fn in checks:
        errors = fn()
        failed += bool(errors)
        print(f"{'PASS' if not errors else 'FAIL'}: {title}")
        for e in errors:
            print(f"  {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
