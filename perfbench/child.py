"""The fresh-process side of the benchmark's traced run.

    python3 perfbench/child.py cli FD TRACE OP ARGV...
        Runs probarg.cli.main(ARGV) as op number OP, traced when TRACE is 1,
        and exits with its code; stdout is the CLI's own output.
    python3 perfbench/child.py pass FD TRACE WORKLOAD SEED ROUND
        Runs and checks round number ROUND of an in-process workload's traced
        run, traced when TRACE is 1.

Both write one JSON summary to the inherited file descriptor FD. Its wall_ms
covers only the package calls (and, when traced, installing the tracer), so
the traced and the untraced side time the same work from the same entry
point; the per-layer totals are worked out after the clock stops. run.py
starts these; every side of every pair gets a fresh interpreter, so a cache
kept inside the package between calls cannot make one side cheaper.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def _import_ms() -> float:
    t0 = perf_counter()
    import probarg.cli  # noqa: F401

    return (perf_counter() - t0) * 1000


def run_cli(fd: int, traced: bool, op: int, argv: list) -> int:
    import_ms = _import_ms()
    from tracing import Tracer

    import probarg.cli

    tracer = Tracer()
    t0 = perf_counter()
    if traced:
        tracer.install()
        tracer.op = op
    code = probarg.cli.main(argv)
    sys.stdout.flush()
    wall_ms = (perf_counter() - t0) * 1000
    _send(fd, {
        "import_ms": import_ms,
        "wall_ms": wall_ms,
        "layers": tracer.summary() if traced else {},
        "missing": tracer.missing,
    })
    return code


def run_pass(fd: int, traced: bool, workload: str, seed: int, round_no: int) -> int:
    import_ms = _import_ms()
    import workloads
    from tracing import Tracer

    runner = workloads.Runner(workload)
    ops = workloads.trace_rounds(workload, seed)[round_no]
    tracer = Tracer()
    t0 = perf_counter()
    if traced:
        tracer.install()
    wall = perf_counter() - t0
    failures = []
    for i, op in enumerate(ops):
        tracer.op = round_no * len(ops) + i
        t0, t1, ok, detail = workloads.attempt(runner.run, op)
        wall += t1 - t0
        if not ok:
            failures.append(detail)
    _send(fd, {
        "import_ms": import_ms,
        "wall_ms": wall * 1000,
        "attempted": len(ops),
        "failures": failures,
        "layers": tracer.summary() if traced else {},
        "missing": tracer.missing,
    })
    return 0


def _send(fd: int, payload: dict):
    with os.fdopen(fd, "w") as out:
        json.dump(payload, out)


if __name__ == "__main__":
    mode, fd, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    if mode == "cli":
        sys.exit(run_cli(fd, traced, int(sys.argv[4]), sys.argv[5:]))
    sys.exit(run_pass(fd, traced, sys.argv[4], int(sys.argv[5]), int(sys.argv[6])))
