"""The benchmark's traced child process runs each workload against this
package at its tiny size, and its output passes the workload's checks.

The tracer in perfbench/spans.py rebinds names inside the package (the
audit's ConvexHull, the ScalarField fields, the matrix fem.solve reads);
a rename there breaks every traced benchmark run, and this test with it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvcoords

SRC = Path(mvcoords.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"
SEED = 3


@pytest.mark.parametrize("name", ["converge", "pentagon-study", "properties", "eval"])
def test_traced_tiny_workload_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]("tiny")
    spec = {"workload": name, "size": "tiny", "seed": SEED, "workdir": str(tmp_path),
            "mode": "call", "trace": 1}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), json.dumps(spec)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0 and report["trace"]
    text = workload.out_path(tmp_path).read_text(encoding="utf-8")
    oks = workload.check(text, report["rc"], workload.reference(SEED, tmp_path))
    assert oks and all(oks)
