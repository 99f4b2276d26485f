"""The solver's work on three fixed inputs, as a Markdown table: simplex
pivots, coherence's solve_lp calls and region starts (tableaux that
Region._start builds), and of those starts the ones on a region with no
column, a layer that presolve left with no class.

- corpus grid: propagate on every corpus task x reading x THETA_GRID;
- chain: propagate on p(A0) >= 9/10, p(A_{i+1} | A_i) >= 9/10 with the
  query (A_{n-1} | A0), for n = 3 .. 12;
- random-assess pool: the 800 items of perfbench/workloads.py (200 per
  size over 2..5 atoms), check_coherence on even items, propagate on odd.

Counts do not depend on the machine, so a change in them shows why a
timing moved. Run with
    PYTHONPATH=src python tests/solver_counts.py
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from probarg import coherence, linprog
from probarg.coherence import ClassificationConfig, IncoherentPremises
from probarg.corpus import THETA_GRID, builtin_tasks
from probarg.dsl import lower
from probarg.events import Interpretation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

CHAIN_SIZES = range(3, 13)
CHAIN_THETA = Fraction(9, 10)


@contextmanager
def counting():
    """Counts, live, of pivots, solves, region starts and starts on a
    region with no column."""
    counts = dict.fromkeys(("pivots", "solves", "starts", "empty starts"), 0)
    pivot, solve, start = linprog._pivot, coherence.solve_lp, linprog.Region._start

    def counted_pivot(*args):
        counts["pivots"] += 1
        return pivot(*args)

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counted_start(region):
        counts["starts"] += 1
        counts["empty starts"] += region.n == 0
        return start.func(region)

    started = cached_property(counted_start)
    started.__set_name__(linprog.Region, "_start")
    linprog._pivot, coherence.solve_lp, linprog.Region._start = (
        counted_pivot,
        counted_solve,
        started,
    )
    try:
        yield counts
    finally:
        linprog._pivot, coherence.solve_lp, linprog.Region._start = pivot, solve, start


def corpus_grid():
    for task in builtin_tasks():
        for interp in Interpretation:
            for theta in THETA_GRID:
                a, q = lower(task.spec, interp, ClassificationConfig(theta=theta))
                coherence.propagate(a, q, task.spec.atoms)


def chain(n):
    coherence.propagate(*workloads.chain_inputs(n, CHAIN_THETA))


def pool():
    for n in workloads.ASSESS_SIZES:
        for index in range(workloads.ASSESS_POOL):
            a, q, atoms = workloads.assess_inputs(workloads.assess_item(n, index))
            if index % 2 == 0:
                coherence.check_coherence(a, atoms)
                continue
            try:
                coherence.propagate(a, q, atoms)
            except IncoherentPremises:
                pass


def rows():
    """(name, counts) per input."""
    runs = [("corpus grid", corpus_grid)]
    runs += [(f"chain n = {n}, θ = 9/10", lambda n=n: chain(n)) for n in CHAIN_SIZES]
    runs.append(("random-assess pool", pool))
    out = []
    for name, run in runs:
        with counting() as counts:
            run()
        out.append((name, counts))
    return out


def render() -> str:
    lines = [
        "### Solver counts",
        "",
        "| input | pivots | solves | region starts | starts with no column |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, c in rows():
        lines.append(
            f"| {name} | {c['pivots']} | {c['solves']} | {c['starts']} | {c['empty starts']} |"
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render())
