"""Reference solver for the differential tests: the original two-phase
simplex with Bland's rule, kept verbatim.

Dense tableau, reduced costs recomputed from scratch, one artificial per
">=" or "==" row, phase 1 on every call. It is slow but simple, and it is
what probarg.linprog replaced, so the tests require the same status and the
same exact optimum from both. Nothing in src/ imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

LE = "<="
GE = ">="
EQ = "=="


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    solution: list | None = None


def solve_lp(objective, rows, maximize=True) -> LPResult:
    """Optimize objective . x subject to rows, x >= 0.

    objective: sequence of coefficients (one per variable).
    rows: list of (coeffs, relation, rhs) with relation in {"<=", ">=", "=="}.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    if not maximize:
        c = [-v for v in c]

    # Normalize to rhs >= 0, then append slack/artificial columns.
    norm = []
    for coeffs, rel, rhs in rows:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if len(coeffs) != n:
            raise ValueError("constraint arity mismatch")
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        norm.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in norm if rel != EQ)
    n_art = sum(1 for _, rel, _ in norm if rel != LE)
    cols = n + n_slack + n_art

    tableau = []
    basis = []
    art_cols = set()
    si = n
    ai = n + n_slack
    for coeffs, rel, rhs in norm:
        row = coeffs + [ZERO] * (cols - n) + [rhs]
        if rel == LE:
            row[si] = ONE
            basis.append(si)
            si += 1
        elif rel == GE:
            row[si] = -ONE
            row[ai] = ONE
            basis.append(ai)
            art_cols.add(ai)
            si += 1
            ai += 1
        else:
            row[ai] = ONE
            basis.append(ai)
            art_cols.add(ai)
            ai += 1
        tableau.append(row)

    if art_cols:
        phase1 = [(-ONE if j in art_cols else ZERO) for j in range(cols)]
        status = _simplex(tableau, basis, phase1, banned=frozenset())
        assert status == "optimal"  # phase 1 objective is bounded above by 0
        if _objective_value(phase1, tableau, basis) != 0:
            return LPResult("infeasible")
        _evict_artificials(tableau, basis, art_cols)

    full_c = c + [ZERO] * (cols - n)
    status = _simplex(tableau, basis, full_c, banned=frozenset(art_cols))
    if status == "unbounded":
        return LPResult("unbounded")
    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tableau[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult("optimal", value if maximize else -value, x)


def _objective_value(c, tableau, basis):
    return sum(c[b] * tableau[i][-1] for i, b in enumerate(basis))


def _evict_artificials(tableau, basis, art_cols):
    """Pivot basic artificials (all at zero) onto real columns; drop dead rows."""
    n_real_limit = min(art_cols)
    i = 0
    while i < len(tableau):
        if basis[i] in art_cols:
            row = tableau[i]
            pivot_col = next(
                (j for j in range(n_real_limit) if row[j] != 0), None
            )
            if pivot_col is None:
                # Redundant constraint: the row is zero on every real column.
                del tableau[i]
                del basis[i]
                continue
            _pivot(tableau, basis, i, pivot_col)
        i += 1


def _simplex(tableau, basis, c, banned):
    """Maximize c . x from the current basic feasible tableau (Bland's rule)."""
    cols = len(c)
    while True:
        # Reduced costs computed from scratch; smallest improving index enters.
        entering = None
        for j in range(cols):
            if j in banned or j in basis:
                continue
            zj = sum(c[basis[i]] * tableau[i][j] for i in range(len(basis)))
            if c[j] - zj > 0:
                entering = j
                break
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
        _pivot(tableau, basis, leaving, entering)


def _pivot(tableau, basis, row, col):
    pr = tableau[row]
    inv = ONE / pr[col]
    tableau[row] = [v * inv for v in pr]
    pr = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * b for a, b in zip(r, pr)]
    basis[row] = col
