"""The solver's work on four fixed inputs, as a Markdown table: simplex
pivots, coherence's solve_lp calls, their cells (the region's len() times
the objective's, summed over the solves, as perfbench's tracer counts
linprog.cells), region starts (tableaux that linprog._start starts), and
of those starts the ones on a region with no column, a layer that
presolve left with no class.

- corpus grid: propagate on every corpus task x reading x THETA_GRID;
- chain: propagate on p(A0) >= 9/10, p(A_{i+1} | A_i) >= 9/10 with the
  query (A_{n-1} | A0), for n = 3 .. 12;
- random-assess pool: the 800 items of perfbench/workloads.py (200 per
  size over 2..5 atoms), check_coherence on even items, propagate on odd;
- interval chain: the chain with every premise in [8/10, 9/10], for n = 6,
  8 and 10. Most of its pivots are in the level-0 phase 1.

Counts do not depend on the machine, so a change in them shows why a
timing moved. Run with
    PYTHONPATH=src python tests/solver_counts.py
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from probarg import coherence, linprog
from probarg.coherence import Assessment, AssessmentEntry, ClassificationConfig, IncoherentPremises
from probarg.corpus import THETA_GRID, builtin_tasks
from probarg.dsl import lower
from probarg.events import Interpretation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

CHAIN_SIZES = range(3, 13)
CHAIN_THETA = Fraction(9, 10)
INTERVAL_SIZES = (6, 8, 10)
INTERVAL = (Fraction(8, 10), Fraction(9, 10))


@contextmanager
def starts():
    """Every start linprog._start makes while in use, as a list of
    (tableau, n, kind): the initial tableau it was given, the number of
    variables, and how it started: "crash", "phase 1" (a phase-1 simplex
    ran) or "infeasible" (phase 1 found no feasible point)."""
    made, runs = [], []
    start, simplex = linprog._start, linprog._simplex

    def counted_simplex(*args):
        runs.append(None)
        return simplex(*args)

    def recorded_start(tableau, basis, n):
        # A start replaces rows, never changes one, so a shallow copy keeps
        # the initial tableau.
        initial, before = tableau[:], len(runs)
        base = start(tableau, basis, n)
        kind = "infeasible" if base is None else "phase 1" if len(runs) > before else "crash"
        made.append((initial, n, kind))
        return base

    linprog._start, linprog._simplex = recorded_start, counted_simplex
    try:
        yield made
    finally:
        linprog._start, linprog._simplex = start, simplex


@contextmanager
def counting():
    """Counts of pivots, solves and their cells, live, and of region
    starts and starts on a region with no column, filled in when the block
    ends."""
    counts = dict.fromkeys(("pivots", "solves", "cells", "starts", "empty starts"), 0)
    pivot, solve = linprog._pivot, coherence.solve_lp

    def counted_pivot(*args):
        counts["pivots"] += 1
        return pivot(*args)

    def counted_solve(objective, rows, *args, **kwargs):
        counts["solves"] += 1
        counts["cells"] += len(rows) * len(objective)
        return solve(objective, rows, *args, **kwargs)

    linprog._pivot, coherence.solve_lp = counted_pivot, counted_solve
    try:
        with starts() as made:
            yield counts
    finally:
        linprog._pivot, coherence.solve_lp = pivot, solve
        counts["starts"] = len(made)
        counts["empty starts"] = sum(1 for _, n, _ in made if n == 0)


def corpus_grid():
    for task in builtin_tasks():
        for interp in Interpretation:
            for theta in THETA_GRID:
                a, q = lower(task.spec, interp, ClassificationConfig(theta=theta))
                coherence.propagate(a, q, task.spec.atoms)


def chain(n):
    coherence.propagate(*workloads.chain_inputs(n, CHAIN_THETA))


def interval_chain_inputs(n):
    """(a, q, atoms) of the chain over n atoms with every premise in
    INTERVAL."""
    a, q, atoms = workloads.chain_inputs(n, INTERVAL[0])
    return Assessment(tuple(AssessmentEntry(e.obj, *INTERVAL) for e in a.entries)), q, atoms


def interval_chain(n):
    coherence.propagate(*interval_chain_inputs(n))


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
    runs += [
        (f"interval chain n = {n}, [8/10, 9/10]", lambda n=n: interval_chain(n))
        for n in INTERVAL_SIZES
    ]
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
        "| input | pivots | solves | cells | region starts | starts with no column |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for name, c in rows():
        lines.append(
            f"| {name} | {c['pivots']} | {c['solves']} | {c['cells']} | {c['starts']} "
            f"| {c['empty starts']} |"
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render())
