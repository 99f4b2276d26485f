"""Exact linear programming over rationals.

One two-phase simplex. Ints in; Fractions only in results. Every
coefficient, rhs, slack unit and objective is a Python int, and a Region
or solve_lp given any other value raises TypeError. All arithmetic is on
ints. A result's value is summed in ints, c_b * rhs_b * (L/d_b) over the
priced basic rows with L the lcm of their d_b, and becomes one Fraction.
Its support() is an int mask of the variables positive at the optimum.
Its solution, the basic values x_b = rhs/d as Fractions, is built only
when it is read.

- Rows are normalised so each slack can start basic: a row with rhs < 0,
  and a homogeneous ">=" row (rhs 0), is negated. Only "==" rows and ">="
  rows with rhs > 0 get an artificial column.
- A row may give the coefficient of its slack as a fourth item (1 when
  left out). The zero-layer systems of coherence send their entry rows
  this way: "<=" rows with rhs 0 in coprime ints, each with its bound's
  denominator as the slack coefficient. Such a row is the tableau row
  its rational form would give, and it is not negated.
- With exactly one artificial row, the start is one pivot, with no phase
  1, when some column is positive in that row and <= 0 in every other row
  (a crash basis; Bixby 1992; see _crash). Otherwise phase 1 runs.
- Each tableau row is divided once by the gcd of its entries. The
  reduced-cost row of an objective, phase 1's included, is summed in ints:
  each basic row a_i with basic coefficient d_i enters scaled by L/d_i,
  with L the lcm of those d_i, and the sum is then made coprime.
- A pivot on entry p of the pivot row replaces every other row r whose
  entry f in the pivot column is nonzero by p*r - f*(pivot row), divided
  by the gcd of its entries; the pivot row itself and the rows
  with f = 0 stay as they are. This is integer-preserving elimination
  (Edmonds 1967, Bareiss 1968) with a per-row gcd in place of Bareiss's
  global divisor, so a pivot touches only the rows it changes.
- Invariant: each constraint row is a positive multiple of the row a
  rational tableau with unit basic coefficients holds, so its basic
  coefficient d is positive, its rhs is >= 0 and its basic variable is
  rhs/d; the reduced-cost row is a positive multiple of the rational one.
  The ratio test compares rhs_i*a_k with rhs_k*a_i. Every entering and
  leaving choice is therefore the one the rational tableau makes.
- A Region holds one system of rows and makes its start once, on its
  first solve. Every solve_lp over the region starts from that basic
  feasible tableau and runs phase 2 only. A row list passed to solve_lp
  becomes a one-use region. Region.vertex() is the start vertex (None
  when the rows are infeasible): a feasible point, or a proof of
  infeasibility, without a solve. Region.support() is the int mask of
  variables positive at one feasible point (None when infeasible): after
  a crash start, every column that allowed it; else the start vertex's.
- Region.charnes_cooper(optimum) derives, from the optimal tableau of
  maximizing c over {sum(x) == 1, H x <= 0}, a started region for
  {c . y == 1, H y <= 0}: one rank-one update of the rows in ints, on the
  same basis, with no phase 1 (see its docstring for the derivation).
- The reduced-cost row lives in the tableau and is updated by each pivot.
  The entering column is the one with the largest reduced cost (Dantzig).
  After a run of degenerate pivots the choice falls back to Bland's rule
  (smallest improving index, ties in the ratio test to the smallest basic
  index) until the next nondegenerate pivot, so the method cannot cycle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from ._value import Value

ZERO = Fraction(0)

LE = "<="
GE = ">="
EQ = "=="

# Degenerate pivots in a row after which Bland's rule takes over.
DEGENERATE_RUN = 8


class LPResult(Value):
    """A solve's outcome; unlike the other value classes it can be changed,
    and so has no hash. An optimal solve_lp result also keeps its final
    tableau (private, not a field), from which Region.charnes_cooper
    starts, support() reads and solution is built on its first read."""

    __slots__ = ("status", "value", "solution", "_optimum")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, status: str, value: Fraction | None = None, solution: list | None = None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.value = value
        self.solution = solution
        # (region, objective, maximize, tableau with its cost row, basis)
        self._optimum = None

    def __getattr__(self, name):
        # Only an unset slot gets here: the solution of a solve_lp optimum.
        if name != "solution" or self._optimum is None:
            raise AttributeError(name)
        region, _, _, tableau, basis = self._optimum
        self.solution = _point(tableau, basis, region.n)
        return self.solution

    def support(self) -> int:
        """The variables positive at a solve_lp optimum, as an int mask:
        bit j is set when x_j > 0."""
        if self._optimum is None:
            raise ValueError("support() reads the tableau of a solve_lp optimum")
        region, _, _, tableau, basis = self._optimum
        return _support(tableau, basis, region.n)


class Region:
    """The polyhedron {x >= 0 : rows} over n variables, started once.

    rows: list of (coeffs, relation, rhs) with relation in {"<=", ">=", "=="}
    and ints for numbers. A "<=" or ">=" row may end with a fourth item, an
    int k > 0, the coefficient of its slack s (1 when left out; an "=="
    row has no slack, and a fourth item on it raises ValueError):
    coeffs . x + k*s == rhs for "<=", and coeffs . x - k*s == rhs for ">=".
    Scaling a row and its k together changes nothing, but k sets the unit
    of the slack, and the entering rule compares the slack's reduced cost
    with the others. len() is the number of rows. A region is never
    changed by a solve, so it can serve any number of objectives.
    """

    def __init__(self, rows, n):
        self.n = n
        self._rows = []
        for coeffs, rel, rhs, *slack in rows:
            gcd(*coeffs, rhs, *slack)  # TypeError on any value but an int
            if len(coeffs) != n:
                raise ValueError("constraint arity mismatch")
            if slack and rel == EQ:
                raise ValueError("an '==' row has no slack")
            if rhs < 0 or (rhs == 0 and rel == GE):
                coeffs = [-v for v in coeffs]
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            self._rows.append((coeffs, rel, rhs, slack[0] if slack else 1))

    def __len__(self):
        return len(self._rows)

    def vertex(self):
        """The start vertex: the basic feasible point every solve starts
        from, or None when the rows are infeasible."""
        start = self._start
        return None if start is None else _point(*start, self.n)

    # The columns of a crash start positive at some feasible point (_crash).
    _crash_support = 0

    def support(self):
        """Variables positive at one feasible point, as an int mask (bit j
        for x_j), or None when the rows are infeasible: those positive at
        the start vertex and, after a crash start, every column that allowed
        it (see _crash)."""
        start = self._start
        return None if start is None else self._crash_support | _support(*start, self.n)

    def charnes_cooper(self, optimum) -> "Region":
        """The region {c . y == 1, this region's other rows}, started from
        optimum, the solve_lp result of maximizing c over this region, with
        no phase 1.

        This region must have the rows {sum(x) == 1, H x <= 0} (the first
        row, then homogeneous ones), and the maximum must be positive.
        Charnes and Cooper (1962) turn the ratio e.x / c.x over it into the
        linear objective e.y over the derived region.

        Rationally, with T the optimal tableau, t its rhs, r the reduced
        costs and M the maximum: T = t*a0 + (H rows), as the rhs vector is
        (1, 0, ..., 0), and c = r + M*a0 + (H rows), as r = c - c_B T. So
        every row T_i + (t_i/M) r lies in the span of c and the H rows, with
        c-coefficient t_i/M, and it keeps T_i's unit on the basic columns
        (r is 0 there). Those rows, with rhs t_i/M, are a tableau of the
        derived region at the same basis, and it is feasible: t_i/M >= 0.
        On the integer tableau, with r[-1] = -K the cost row's last entry
        and M = P/Q, row i becomes P*K*row_i + P*rhs_i*r on the columns,
        with rhs rhs_i*K*Q, made coprime. A row with rhs 0 stays as it is.
        """
        start = optimum._optimum
        if start is None or start[0] is not self or not start[2]:
            raise ValueError("optimum is not a solve_lp maximum over this region")
        p, q = optimum.value.numerator, optimum.value.denominator
        if p <= 0:
            raise ValueError("the Charnes-Cooper start needs a positive maximum")
        first, rel, rhs, _ = self._rows[0]
        if rel != EQ or rhs != 1 or any(v != 1 for v in first):
            raise ValueError("the first row must be sum(x) == 1")
        if any(rhs != 0 for _, _, rhs, _ in self._rows[1:]):
            raise ValueError("the rows after the first must be homogeneous")
        _, c, _, final, basis = start
        cost = final[-1]
        k = -cost[-1]
        pk = p * k
        tableau = []
        for row, b in zip(final[:-1], basis):
            rhs = row[-1]
            if rhs:
                prhs = p * rhs
                row = _coprime(
                    [pk * a + prhs * r for a, r in zip(row[:-1], cost)] + [rhs * k * q]
                )
            if row[b] <= 0 or row[-1] < 0:
                raise RuntimeError("Charnes-Cooper start broke the tableau invariant")
            tableau.append(row)
        derived = Region.__new__(Region)
        derived.n = self.n
        derived._rows = [(c, EQ, 1, 1)] + self._rows[1:]
        derived._start = tableau, basis
        return derived

    @cached_property
    def _start(self):
        """A basic feasible (integer tableau, basis) with the artificial
        columns removed, or None when the rows are infeasible."""
        n = self.n
        n_slack = sum(1 for _, rel, _, _ in self._rows if rel != EQ)
        n_art = sum(1 for _, rel, _, _ in self._rows if rel != LE)
        n_real = n + n_slack
        cols = n_real + n_art
        zeros = [0] * (cols - n)
        tableau = []
        basis = []
        si, ai = n, n_real
        for coeffs, rel, rhs, k in self._rows:
            row = [*coeffs, *zeros, rhs]
            if rel != EQ:
                row[si] = k if rel == LE else -k
                si += 1
            if rel == LE:
                basis.append(si - 1)
            else:
                row[ai] = 1
                basis.append(ai)
                ai += 1
            tableau.append(_coprime(row))
        if n_art:
            crash = _crash(tableau, basis, n, n_real) if n_art == 1 else None
            if crash is not None:
                self._crash_support = crash
            else:
                # Phase 1 maximizes minus the sum of the artificials.
                phase1 = [0] * n_real + [-1] * n_art + [0]
                tableau.append(_reduced_costs(tableau, basis, phase1))
                if _simplex(tableau, basis) != "optimal":
                    raise RuntimeError("phase 1 unexpectedly unbounded")
                if tableau.pop()[-1] != 0:
                    return None
                _evict_artificials(tableau, basis, n_real)
            tableau = [row[:n_real] + row[-1:] for row in tableau]
        return tableau, basis


def solve_lp(objective, rows, maximize=True) -> LPResult:
    """Optimize objective . x subject to rows, x >= 0.

    objective: sequence of int coefficients (one per variable).
    rows: a Region, or a list of (coeffs, relation, rhs) rows as Region
    takes them.
    """
    n = len(objective)
    g = gcd(*objective) or 1  # TypeError on any value but an int
    if not isinstance(rows, Region):
        rows = Region(rows, n)
    elif rows.n != n:
        raise ValueError("objective arity mismatch")
    start = rows._start
    if start is None:
        return LPResult("infeasible")
    base, basis = start
    tableau = base[:]
    basis = basis[:]
    cols = len(base[0]) - 1 if base else n
    # The objective made coprime, negated to minimize.
    cost = [v // g if maximize else -v // g for v in objective]
    cost += [0] * (cols - n + 1)
    tableau.append(_reduced_costs(tableau, basis, cost))
    if _simplex(tableau, basis) == "unbounded":
        return LPResult("unbounded")
    # Only basic variables can be nonzero: the value is the sum of
    # c_b * rhs/d over the priced basic rows, taken over the lcm of their d.
    priced = [
        (objective[b], row[-1], row[b])
        for row, b in zip(tableau, basis)
        if b < n and row[-1] and objective[b]
    ]
    big = lcm(*[d for _, _, d in priced])
    res = LPResult("optimal", Fraction(sum([c * rhs * (big // d) for c, rhs, d in priced]), big))
    res._optimum = rows, objective, maximize, tableau, basis
    del res.solution  # built from the tableau on its first read
    return res


def _point(tableau, basis, n):
    """The basic solution of a tableau: x_b = rhs/d for each basic b < n."""
    x = [ZERO] * n
    for row, b in zip(tableau, basis):
        if b < n and row[-1]:
            x[b] = Fraction(row[-1], row[b])
    return x


def _support(tableau, basis, n):
    """The variables positive in the basic solution of a tableau, as an int
    mask: bit b for each basic b < n with rhs > 0."""
    mask = 0
    for row, b in zip(tableau, basis):
        if b < n and row[-1]:
            mask |= 1 << b
    return mask


def _reduced_costs(tableau, basis, c):
    """The reduced-cost row of objective c (ints, one per tableau column,
    then 0) at the tableau's basis, as coprime ints.

    The rational row is c_j - sum_i c_B(i) * a_ij / d_i, with minus the
    objective value in the last place and d_i the basic coefficient of row
    a_i. Scaled by the lcm L of the d_i of the rows with c_B(i) != 0, that
    is L*c - sum_i c_B(i) * (L/d_i) * a_i, all in ints.
    """
    priced = [(row, b) for row, b in zip(tableau, basis) if c[b]]
    if priced:
        big = lcm(*[row[b] for row, b in priced])
        priced = [(row, big // row[b] * c[b]) for row, b in priced]
        c = [big * v for v in c]
        for row, k in priced:
            for j, v in enumerate(row):
                if v:
                    c[j] -= k * v
    return _coprime(c)


def _coprime(row):
    """The int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _crash(tableau, basis, n, n_real):
    """Start a tableau whose one artificial sits in row i in one pivot, when
    a column allows it: pivot row i on the smallest column j < n that is
    positive in row i and <= 0 in every other row. Returns None when no
    column allows it, else the columns positive at some feasible point, as
    an int mask: every column that allows it when row i's rhs is positive,
    none when it is 0.

    Every other row is a "<=" row with rhs >= 0 and its slack basic, so the
    pivot leaves it the rhs p*rhs_r - r_j*rhs_i >= 0 (p: row i's entry at j)
    and a positive slack coefficient: the start is basic feasible, and the
    artificial, now nonbasic, can be dropped. No slack column is positive
    in row i, so j < n loses no candidate. The same holds for each column
    that allows the pivot: alone, at rhs_i/p > 0, it is a feasible point.
    The feasible set is convex, so the mean of those points is feasible
    too, and positive on each of their columns.
    """
    i = next(k for k, b in enumerate(basis) if b >= n_real)
    art = tableau[i]
    columns = [j for j in range(n) if art[j] > 0]
    for k, row in enumerate(tableau):
        if k != i:
            columns = [j for j in columns if row[j] <= 0]
    if not columns:
        return None
    positive = sum([1 << j for j in columns]) if art[-1] else 0
    _pivot(tableau, basis, i, columns[0])
    if any(row[b] <= 0 or row[-1] < 0 for row, b in zip(tableau, basis)):
        raise RuntimeError("crash start broke the tableau invariant")
    return positive


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
            if row[pivot_col] < 0:
                # The rhs is 0, so the negated row keeps the invariant.
                tableau[i] = [-v for v in row]
            _pivot(tableau, basis, i, pivot_col)
        i += 1


def _simplex(tableau, basis):
    """Maximize from a basic feasible tableau whose last row holds the
    reduced costs (and minus the objective value)."""
    cols = len(tableau[-1]) - 1
    degenerate = 0
    while True:
        cost = tableau[-1]
        entering = None
        if degenerate < DEGENERATE_RUN:
            best = 0
            for j in range(cols):
                if cost[j] > best:
                    best = cost[j]
                    entering = j
        else:
            entering = next((j for j in range(cols) if cost[j] > 0), None)
        if entering is None:
            return "optimal"
        leaving = None
        for i in range(len(basis)):
            row = tableau[i]
            a = row[entering]
            if a > 0:
                # rhs/a < best_rhs/best_a, with both a positive
                if leaving is None:
                    best_rhs, best_a, leaving = row[-1], a, i
                    continue
                diff = row[-1] * best_a - best_rhs * a
                if diff < 0 or (diff == 0 and basis[i] < basis[leaving]):
                    best_rhs, best_a, leaving = row[-1], a, i
        if leaving is None:
            return "unbounded"
        degenerate = degenerate + 1 if best_rhs == 0 else 0
        _pivot(tableau, basis, leaving, entering)


def _pivot(tableau, basis, row, col):
    """Pivot on tableau[row][col] > 0. Rows are replaced, never changed in
    place, so tableaux that start from one Region may share rows."""
    pr = tableau[row]
    p = pr[col]
    for i, r in enumerate(tableau):
        f = r[col]
        if f and i != row:
            r = [p * a - f * b for a, b in zip(r, pr)]
            g = gcd(*r)
            tableau[i] = [v // g for v in r] if g > 1 else r
    basis[row] = col
