"""Exact linear programming over rationals.

One two-phase simplex, all arithmetic in fractions.Fraction.

- Rows are normalised so each slack can start basic: a row with rhs < 0,
  and a homogeneous ">=" row (rhs 0), is negated. Only "==" rows and ">="
  rows with rhs > 0 get an artificial column.
- A Region holds one system of rows and runs phase 1 on it once, on its
  first solve. Every solve_lp over the region copies that basic feasible
  tableau and runs phase 2 only. A row list passed to solve_lp becomes a
  one-use region.
- The reduced-cost row lives in the tableau and is updated by each pivot.
  The entering column is the one with the largest reduced cost (Dantzig).
  After a run of degenerate pivots the choice falls back to Bland's rule
  (smallest improving index, ties in the ratio test to the smallest basic
  index) until the next nondegenerate pivot, so the method cannot cycle.
- A pivot touches only the columns where the pivot row is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

ZERO = Fraction(0)
ONE = Fraction(1)

LE = "<="
GE = ">="
EQ = "=="

# Degenerate pivots in a row after which Bland's rule takes over.
DEGENERATE_RUN = 8


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    solution: list | None = None


class Region:
    """The polyhedron {x >= 0 : rows} over n variables, phase 1 done once.

    rows: list of (coeffs, relation, rhs) with relation in {"<=", ">=", "=="}.
    len() is the number of rows. A region is never changed by a solve, so
    it can serve any number of objectives.
    """

    def __init__(self, rows, n):
        self.n = n
        self._rows = []
        for coeffs, rel, rhs in rows:
            coeffs = [Fraction(v) for v in coeffs]
            rhs = Fraction(rhs)
            if len(coeffs) != n:
                raise ValueError("constraint arity mismatch")
            if rhs < 0 or (rhs == 0 and rel == GE):
                coeffs = [-v for v in coeffs]
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            self._rows.append((coeffs, rel, rhs))

    def __len__(self):
        return len(self._rows)

    @cached_property
    def _start(self):
        """A basic feasible (tableau, basis) with the artificial columns
        removed, or None when the rows are infeasible."""
        n = self.n
        n_slack = sum(1 for _, rel, _ in self._rows if rel != EQ)
        n_art = sum(1 for _, rel, _ in self._rows if rel != LE)
        n_real = n + n_slack
        cols = n_real + n_art
        tableau = []
        basis = []
        si, ai = n, n_real
        for coeffs, rel, rhs in self._rows:
            row = coeffs + [ZERO] * (cols - n) + [rhs]
            if rel != EQ:
                row[si] = ONE if rel == LE else -ONE
                si += 1
            if rel == LE:
                basis.append(si - 1)
            else:
                row[ai] = ONE
                basis.append(ai)
                ai += 1
            tableau.append(row)
        if n_art:
            # Phase 1 maximizes minus the sum of the artificials; its
            # reduced costs start as the sum of the rows they are basic in.
            cost = [ZERO] * (cols + 1)
            for row, b in zip(tableau, basis):
                if b >= n_real:
                    for j in range(n_real):
                        cost[j] += row[j]
                    cost[-1] += row[-1]
            tableau.append(cost)
            if _simplex(tableau, basis) != "optimal":
                raise RuntimeError("phase 1 unexpectedly unbounded")
            if tableau.pop()[-1] != 0:
                return None
            _evict_artificials(tableau, basis, n_real)
            tableau = [row[:n_real] + row[-1:] for row in tableau]
        return tableau, basis


def solve_lp(objective, rows, maximize=True) -> LPResult:
    """Optimize objective . x subject to rows, x >= 0.

    objective: sequence of coefficients (one per variable).
    rows: a Region, or a list of (coeffs, relation, rhs) rows as Region
    takes them.
    """
    n = len(objective)
    if not isinstance(rows, Region):
        rows = Region(rows, n)
    elif rows.n != n:
        raise ValueError("objective arity mismatch")
    c = [Fraction(v) for v in objective]
    if not maximize:
        c = [-v for v in c]
    start = rows._start
    if start is None:
        return LPResult("infeasible")
    base, basis = start
    tableau = [row[:] for row in base]
    basis = basis[:]
    cols = len(base[0]) - 1 if base else n
    # Reduced costs of c at the starting basis: c_j - sum_i c_B(i) * a_ij,
    # and minus the objective value in the last place.
    cost = c + [ZERO] * (cols - n + 1)
    for row, b in zip(tableau, basis):
        if b < n and c[b]:
            cb = c[b]
            for j, v in enumerate(row):
                if v:
                    cost[j] -= cb * v
    tableau.append(cost)
    if _simplex(tableau, basis) == "unbounded":
        return LPResult("unbounded")
    x = [ZERO] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = row[-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult("optimal", value if maximize else -value, x)


def _evict_artificials(tableau, basis, n_real):
    """Pivot basic artificials (all at zero) onto real columns; drop dead rows."""
    i = 0
    while i < len(basis):
        if basis[i] >= n_real:
            row = tableau[i]
            pivot_col = next((j for j in range(n_real) if row[j] != 0), None)
            if pivot_col is None:
                # Redundant constraint: the row is zero on every real column.
                del tableau[i]
                del basis[i]
                continue
            _pivot(tableau, basis, i, pivot_col)
        i += 1


def _simplex(tableau, basis):
    """Maximize from a basic feasible tableau whose last row holds the
    reduced costs (and minus the objective value)."""
    cost = tableau[-1]
    cols = len(cost) - 1
    degenerate = 0
    while True:
        entering = None
        if degenerate < DEGENERATE_RUN:
            best = ZERO
            for j in range(cols):
                if cost[j] > best:
                    best = cost[j]
                    entering = j
        else:
            entering = next((j for j in range(cols) if cost[j] > 0), None)
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for i in range(len(basis)):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return "unbounded"
        degenerate = degenerate + 1 if best == 0 else 0
        _pivot(tableau, basis, leaving, entering)


def _pivot(tableau, basis, row, col):
    pr = tableau[row]
    nz = [j for j, v in enumerate(pr) if v]
    if pr[col] != 1:
        inv = ONE / pr[col]
        for j in nz:
            pr[j] *= inv
    for i, r in enumerate(tableau):
        f = r[col]
        if f and i != row:
            for j in nz:
                r[j] -= f * pr[j]
    basis[row] = col
