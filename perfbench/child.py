"""One benchmark process: set up, then run one mvcoords CLI command.

Usage: ``python3 child.py SPEC_JSON``, with ``src`` on ``PYTHONPATH``.
SPEC_JSON holds ``workload``, ``size``, ``seed``, ``workdir``, ``mode``
(``probe`` stops after set-up) and ``trace``. Set-up is process start,
imports and input generation; it ends at the ``ready`` timestamp, taken
on the monotonic clock the parent also reads. The last line of stdout
is a JSON report of the call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    import mvcoords.cli
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](spec["size"])
    workdir = Path(spec["workdir"])
    workload.make_inputs(spec["seed"], workdir)
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.install()
    ready = time.monotonic()
    if spec["mode"] == "probe":
        print(json.dumps({"ready": ready}))
        return 0

    argv = workload.argv(spec["seed"], workdir)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = mvcoords.cli.main(argv)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "ready": ready,
        "rc": rc,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
