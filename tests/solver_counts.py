"""The solver's work on four fixed inputs, as a Markdown table: simplex
pivots, coherence's solve_lp calls, their cells (the region's len() times
the objective's, summed over the solves, as perfbench's tracer counts
linprog.cells), region starts (tableaux that linprog._start starts by
phase 1, and crash starts, which linprog._crash_start lays out), and of
those starts the ones on a region with no column, a layer that presolve
left with no class. A laid-out crash start counts as one pivot, the pivot
whose tableau it lays out; perfbench's tracer, which counts _pivot calls,
does not count it.

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

import general_rows
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
    """Every region start made while in use, as a list of (tableau, n,
    kind): the initial tableau, the number of variables, and how it
    started: "crash" (one pivot, laid out by linprog._crash_start or, for
    general rows, made by general_rows.crash), "phase 1" (linprog._start
    ran a phase-1 simplex) or "infeasible" (phase 1 found no feasible
    point)."""
    made = []
    start, crash_start, crash = linprog._start, linprog._crash_start, general_rows.crash

    def recorded_start(tableau, basis):
        # A start replaces rows, never changes one, so a shallow copy keeps
        # the initial tableau. Every row but row 0 has a slack column, so
        # the tableau has n + len(tableau) - 1 columns before the rhs.
        initial, n = tableau[:], len(tableau[0]) - len(tableau)
        base = start(tableau, basis)
        made.append((initial, n, "infeasible" if base is None else "phase 1"))
        return base

    def recorded_crash_start(n, rows, j):
        made.append((general_rows.layer_tableau(n, rows)[0], n, "crash"))
        return crash_start(n, rows, j)

    def recorded_crash(tableau, basis, n):
        initial = tableau[:]
        positive = crash(tableau, basis, n)
        if positive is not None:
            made.append((initial, n, "crash"))
        return positive

    linprog._start, linprog._crash_start = recorded_start, recorded_crash_start
    general_rows.crash = recorded_crash
    try:
        yield made
    finally:
        linprog._start, linprog._crash_start, general_rows.crash = start, crash_start, crash


@contextmanager
def counting():
    """Counts of pivots, solves and their cells and deeper levels (calls of
    coherence._restrict_worlds), live, and of region starts and starts on a
    region with no column, filled in when the block ends. A laid-out crash
    start counts as one pivot."""
    counts = dict.fromkeys(("pivots", "solves", "cells", "levels", "starts", "empty starts"), 0)
    pivot, crash_start, solve = linprog._pivot, linprog._crash_start, coherence.solve_lp
    restrict = coherence._restrict_worlds

    def counted_pivot(*args):
        counts["pivots"] += 1
        return pivot(*args)

    def counted_crash_start(*args):
        counts["pivots"] += 1
        return crash_start(*args)

    def counted_solve(objective, rows, *args, **kwargs):
        counts["solves"] += 1
        counts["cells"] += len(rows) * len(objective)
        return solve(objective, rows, *args, **kwargs)

    def counted_restrict(*args):
        counts["levels"] += 1
        return restrict(*args)

    linprog._pivot, linprog._crash_start = counted_pivot, counted_crash_start
    coherence.solve_lp, coherence._restrict_worlds = counted_solve, counted_restrict
    try:
        with starts() as made:
            yield counts
    finally:
        linprog._pivot, linprog._crash_start, coherence.solve_lp = pivot, crash_start, solve
        coherence._restrict_worlds = restrict
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
