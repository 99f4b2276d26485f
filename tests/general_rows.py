"""The general-row front end of probarg.linprog, for the tests.

probarg's layers hand linprog's Region their rows, and Region builds the
one tableau form, {sum(x) == 1, H x <= 0}, and starts it. The tests also
state systems as row lists of every relation: the differential tests
against the Bland reference, the layer that builds every premise row as a
">=" row (FullLayer in test_solver_path), every layer's rows, to check
the tableau it builds, and the Charnes-Cooper program and the pinned row
m_q = 0 rebuilt from rows. This module turns such a list into a started
Region, by a path of its own up to the simplex core:

- each row is checked (ints only, arity, at most four items, a slack unit
  only on "<=" and ">=" rows and > 0), and a row with rhs < 0 and a
  homogeneous ">=" row are negated, so each slack can start basic. Only
  "==" rows and ">=" rows with rhs > 0 need an artificial;
- the initial tableau is in the form linprog's start takes: the
  variables' columns, one slack column per "<=" or ">=" row with its unit
  there, the rhs, and no artificial column; a row is divided by its gcd
  unless several rows need an artificial;
- with no artificial row, the tableau is its own start. With one, the
  artificial row goes first and linprog._start starts the tableau (crash
  start or phase 1 on the artificial's row). With several, phase 1 runs
  here, over a unit column for each artificial and a cost row that
  maximizes minus their sum, through linprog's _simplex, _reduced_costs
  and _evict_artificials. The region gets its start through
  Region._started, as a Region.charnes_cooper region does.

Nothing in src/ imports it.
"""

from __future__ import annotations

from math import gcd

from probarg import linprog
from probarg.linprog import Region, solve_lp

LE = "<="
GE = ">="
EQ = "=="


def rows_region(rows, n) -> Region:
    """The region {x >= 0 : rows} over n variables.

    rows: (coeffs, relation, rhs) with relation in {"<=", ">=", "=="} and
    ints for numbers. A "<=" or ">=" row may end with a fourth item, an int
    k > 0, the coefficient of its slack s (1 when left out):
    coeffs . x + k*s == rhs for "<=", and coeffs . x - k*s == rhs for ">=".
    An "==" row has no slack. Any other value raises TypeError, and a row
    of the wrong arity or length, a slack unit on an "==" row or a k <= 0
    raises ValueError. len() of the region is the number of rows."""
    checked = []
    for coeffs, rel, rhs, *slack in rows:
        if len(slack) > 1:
            raise ValueError("a row has at most four items: coeffs, relation, rhs, slack unit")
        gcd(*coeffs, rhs, *slack)  # TypeError on any value but an int
        if len(coeffs) != n:
            raise ValueError("constraint arity mismatch")
        if slack and rel == EQ:
            raise ValueError("an '==' row has no slack")
        if slack and slack[0] <= 0:
            raise ValueError("a slack unit must be > 0")
        if rhs < 0 or (rhs == 0 and rel == GE):
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        checked.append((coeffs, rel, rhs, slack[0] if slack else 1))
    n_slack = sum(1 for _, rel, _, _ in checked if rel != EQ)
    n_art = sum(1 for _, rel, _, _ in checked if rel != LE)
    zeros = [0] * n_slack
    tableau, basis = [], []
    si, ai = n, n + n_slack
    for coeffs, rel, rhs, k in checked:
        row = [*coeffs, *zeros, rhs]
        if rel != EQ:
            row[si] = k if rel == LE else -k
            si += 1
        if rel == LE:
            basis.append(si - 1)
        else:
            basis.append(ai)
            ai += 1
        # A row with an artificial, when there are several, keeps its unit
        # artificial coefficient: it is not divided by its gcd.
        tableau.append(linprog._coprime(row) if rel == LE or n_art == 1 else row)
    if n_art == 0:
        base = tableau, basis, 0
    elif n_art == 1:
        # The start takes the artificial row first. No choice of a pivot
        # reads the order of the rows, only their basic columns.
        i = next(i for i, (_, rel, _, _) in enumerate(checked) if rel != LE)
        tableau.insert(0, tableau.pop(i))
        basis.insert(0, basis.pop(i))
        base = linprog._start(tableau, basis, n)
    else:
        base = _phase1(tableau, basis, n_art)
    return Region._started(n, base, len(rows))


def _phase1(tableau, basis, n_art):
    """A basic feasible (tableau, basis, 0) with no artificial column, or None
    when the rows are infeasible: phase 1 maximizes minus the sum of the
    n_art artificials, over a unit column for each."""
    n_real = len(tableau[0]) - 1
    tableau = [
        row[:-1] + [int(b == a) for a in range(n_real, n_real + n_art)] + row[-1:]
        for row, b in zip(tableau, basis)
    ]
    basis = basis[:]
    phase1 = [0] * n_real + [-1] * n_art + [0]
    tableau.append(linprog._reduced_costs(tableau, basis, phase1))
    if linprog._simplex(tableau, basis) != "optimal":
        raise RuntimeError("phase 1 unexpectedly unbounded")
    if tableau.pop()[-1] != 0:
        return None
    linprog._evict_artificials(tableau, basis, n_real)
    return [row[:n_real] + row[-1:] for row in tableau], basis, 0


def solve_rows(objective, rows, maximize=True):
    """solve_lp of objective over the region of the row list rows."""
    return solve_lp(objective, rows_region(rows, len(objective)), maximize)
