"""Exact linear programming over rationals.

One simplex, over one tableau form. Ints in; Fractions only in results.
Every tableau entry and objective coefficient is a Python int, and
solve_lp given an objective with any other value raises TypeError. All
arithmetic is on ints. A result's value is summed in ints,
c_b * rhs_b * (L/d_b) over the priced basic rows with L the lcm of their
d_b, and kept as that int numerator over L: its numerator says whether it
is 0 with no Fraction, and the value becomes one Fraction only when it is
read. Its support() is an int mask of the variables positive at the
optimum. Its solution, the basic values x_b = rhs/d as Fractions, is
likewise built only when it is read.

- A Region is the masses of one zero layer, {x >= 0 : sum(x) == 1,
  H x <= 0}: Region(n, rows) takes the layer's rows, each the int
  coefficients of a "<=" row with rhs 0, coprime with its slack
  coefficient k, and builds the one tableau form itself, with no row
  checked: sum(x) == 1, the artificial row, first, then each row with its
  own slack column, k there, basic; the variables' columns, the slack
  columns and the rhs, and no artificial column. A slack coefficient k
  sets the unit of its slack, and the entering rule compares the slack's
  reduced cost with the others.
- The start is one pivot, with no phase 1, when some column is positive
  in the artificial row and <= 0 in every other row (a crash basis;
  Bixby 1992; see _crash). Otherwise phase 1 runs, on the artificial's
  own row: while the artificial is basic, phase 1's reduced costs are a
  positive multiple of that row, and phase 1 ends when it leaves. So the
  tableau has no artificial column and phase 1 no cost row (see _start);
  every entering and leaving choice is the one a cost row would give.
- The reduced-cost row of an objective, phase 1's included, is summed in
  ints: each basic row a_i with basic coefficient d_i enters scaled by
  L/d_i, with L the lcm of those d_i, and the sum is then made coprime.
- A pivot on entry p of the pivot row replaces every other row r whose
  entry f in the pivot column is nonzero by p*r - f*(pivot row), divided
  by the gcd of its entries; the pivot row itself and the rows
  with f = 0 stay as they are. This is integer-preserving elimination
  (Edmonds 1967, Bareiss 1968) with a per-row gcd in place of Bareiss's
  global divisor, so a pivot touches only the rows it changes. The row is
  formed from p and f divided by gcd(p, f), and is then most often coprime
  already, which two of its entries show (see _pivot): only when they do
  not does a pass find the gcd of every entry. Each such row is the row
  p*r - f*(pivot row) divided by a positive int, and a positive direction
  has only one coprime int vector, so the rows are the same either way.
- Invariant: each constraint row is a positive multiple of the row a
  rational tableau with unit basic coefficients holds, so its basic
  coefficient d is positive, its rhs is >= 0 and its basic variable is
  rhs/d; the reduced-cost row is a positive multiple of the rational one.
  The ratio test compares rhs_i*a_k with rhs_k*a_i. Every entering and
  leaving choice is therefore the one the rational tableau makes.
- A Region makes its start once, when it is built. Every solve_lp over
  the region starts from that basic feasible tableau and runs phase 2
  only. Region.support() is the int mask of the variables positive at one
  feasible point, or None when the rows are infeasible: after a crash
  start, every column that allowed it; else the start vertex's.
  Region.singletons() is the mask of the crash columns, each of which
  alone is a feasible point, and 0 after a phase-1 start. Neither needs a
  solve. The start vertex itself is the solution of
  solve_lp([0] * n, region), which makes no pivot.
- A region with no column has the row sum(x) == 1 over no column, which
  holds at no point: it is infeasible, and is known to be so with no
  start, no crash and no phase 1 (the empty-row rule of LP presolve;
  Andersen and Andersen 1995). It is the region of a layer with no class.
- Region.charnes_cooper(optimum) derives, from the optimal tableau of
  maximizing c over a region {sum(x) == 1, H x <= 0}, a started region for
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
from math import gcd, lcm

from ._value import Value

ZERO = Fraction(0)

# Degenerate pivots in a row after which Bland's rule takes over.
DEGENERATE_RUN = 8


class LPResult(Value):
    """A solve's outcome; unlike the other value classes it can be changed,
    and so has no hash. An optimal solve_lp result also keeps its final
    tableau and its value as an int numerator and denominator (private, not
    fields), from which Region.charnes_cooper starts, support() and
    numerator read, and value and solution are built on their first
    read."""

    __slots__ = ("status", "value", "solution", "_optimum", "_ratio")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, status: str, value: Fraction | None = None, solution: list | None = None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.value = value
        self.solution = solution
        # (region, maximize, tableau with its cost row, basis)
        self._optimum = None

    def __getattr__(self, name):
        # Only an unset slot gets here: the value or the solution of a
        # solve_lp optimum.
        if self._optimum is None:
            raise AttributeError(name)
        if name == "value":
            self.value = Fraction(*self._ratio)
            return self.value
        if name == "solution":
            region, _, tableau, basis = self._optimum
            self.solution = _point(tableau, basis, region.n)
            return self.solution
        raise AttributeError(name)

    @property
    def numerator(self) -> int:
        """The int numerator of a solve_lp optimum's value, over a positive
        int denominator and not always in lowest terms, read without
        building the value: it is 0 exactly when the value is, and has its
        sign. Any other result has none (AttributeError)."""
        return self._ratio[0]

    def support(self) -> int:
        """The variables positive at a solve_lp optimum, as an int mask:
        bit j is set when x_j > 0."""
        if self._optimum is None:
            raise ValueError("support() reads the tableau of a solve_lp optimum")
        region, _, tableau, basis = self._optimum
        return _support(tableau, basis, region.n)


class Region:
    """The polyhedron {x >= 0 : sum(x) == 1, row . x <= 0 for each (row, k)
    of rows} over n variables, the masses of one zero layer, started when
    it is built (_start). len() is 1 + the number of rows. A region is
    never changed by a solve, so it can serve any number of objectives."""

    def __init__(self, n, rows):
        """rows: pairs (row, k), the n int coefficients of a "<=" row with
        rhs 0 and its slack coefficient k > 0, each row coprime with its k;
        nothing is checked. coherence's layers build theirs (see _Layer in
        coherence).

        The initial tableau is sum(x) == 1, the one row that needs an
        artificial, then each row with its own slack column, k there,
        basic: no row needs a negation, as its rhs is 0, nor a division by
        its gcd. A region with no column has the row sum(x) == 1 over no
        column, which holds at no point (the empty-row rule of LP presolve;
        Andersen and Andersen 1995), and makes no start."""
        s = len(rows)
        tableau = [[1] * n + [0] * s + [1]]
        tail = [0] * (s + 1)
        for j, (row, k) in enumerate(rows, n):
            row = row + tail
            row[j] = k
            tableau.append(row)
        self.n, self._size = n, s + 1
        self._base = _start(tableau, [n + s, *range(n, n + s)], n) if n else None

    @classmethod
    def _started(cls, n, base, size):
        """The region over n variables whose start its caller made: base is
        (tableau, basis, singletons) as _start returns it, or None when the
        rows are infeasible, and size is len() of the region."""
        region = cls.__new__(cls)
        region.n, region._size, region._base = n, size, base
        return region

    def __len__(self):
        return self._size

    def support(self):
        """Variables positive at one feasible point, as an int mask (bit j
        for x_j), or None when the rows are infeasible: those positive at
        the start vertex and, after a crash start, every column that allowed
        it (see _crash)."""
        base = self._base
        if base is None:
            return None
        tableau, basis, singletons = base
        return singletons | _support(tableau, basis, self.n)

    def singletons(self) -> int:
        """The columns j at which the point with x_j > 0 alone, every other
        variable 0, is feasible, as an int mask, read off a crash start:
        every column that allowed it (see _crash). 0 after a phase-1 start
        and when the rows are infeasible; it needs no solve."""
        return 0 if self._base is None else self._base[2]

    def charnes_cooper(self, optimum) -> "Region":
        """The region {c . y == 1, H y <= 0}, started from optimum, the
        solve_lp result of maximizing c over this region {sum(x) == 1,
        H x <= 0}, with no phase 1. The maximum must be positive. Charnes
        and Cooper (1962) turn the ratio e.x / c.x over this region into
        the linear objective e.y over the derived one. len() of the derived
        region is this region's.

        Rationally, with T the optimal tableau, t its rhs, r the reduced
        costs and M the maximum: T = t*a0 + (H rows), as the rhs vector is
        (1, 0, ..., 0), and c = r + M*a0 + (H rows), as r = c - c_B T. So
        every row T_i + (t_i/M) r lies in the span of c and the H rows, with
        c-coefficient t_i/M, and it keeps T_i's unit on the basic columns
        (r is 0 there). Those rows, with rhs t_i/M, are a tableau of the
        derived region at the same basis, and it is feasible: t_i/M >= 0.
        On the integer tableau, with r[-1] = -K the cost row's last entry
        and M = P/Q, row i becomes P*K*row_i + P*rhs_i*r on the columns,
        with rhs rhs_i*K*Q, made coprime. P/Q is the optimum's int ratio,
        not always in lowest terms; a factor common to P and Q scales the
        whole row and goes with the gcd. The three multipliers P*K,
        P*rhs_i and rhs_i*K*Q are divided by their common gcd before the
        row is formed, which leaves the same coprime row; the rhs term must
        be in that gcd, as gcd(P*K, P*rhs_i) need not divide it. A row with
        rhs 0 stays as it is.
        """
        start = optimum._optimum
        if start is None or start[0] is not self or not start[1]:
            raise ValueError("optimum is not a solve_lp maximum over this region")
        p, q = optimum._ratio
        if p <= 0:
            raise ValueError("the Charnes-Cooper start needs a positive maximum")
        _, _, final, basis = start
        cost = final[-1]
        k = -cost[-1]
        pk = p * k
        tableau = []
        for row, b in zip(final[:-1], basis):
            rhs = row[-1]
            if rhs:
                # The multipliers of row, of the cost row and of the rhs.
                s, t, u = pk, p * rhs, rhs * k * q
                g = gcd(s, t, u)
                s, t = s // g, t // g
                row = _coprime([s * a + t * r for a, r in zip(row[:-1], cost)] + [u // g], b)
            if row[b] <= 0 or row[-1] < 0:
                raise RuntimeError("Charnes-Cooper start broke the tableau invariant")
            tableau.append(row)
        return Region._started(self.n, (tableau, basis, 0), self._size)


def _start(tableau, basis, n):
    """Start the initial tableau of a region in place: (tableau, basis,
    singletons), basic feasible with no artificial column, or None when the
    rows are infeasible. singletons is the mask of the crash columns (see
    _crash), 0 after a phase-1 start.

    Row 0 needs the one artificial, and every other row starts basic in
    its own slack. The artificial has no column: its basis index is
    n_real, the number of columns before the rhs, past every real column,
    which also makes it lose every tie of the ratio test, as its column
    would. While it is basic, phase 1's reduced costs (maximize minus the
    artificial) are row 0's entries with 0 at the artificial's own column
    (_reduced_costs), and each pivot changes row 0 and that cost row
    alike, up to a positive factor; so row 0 prices the columns, with the
    same choices. Once the artificial leaves, every real column prices at
    0, so phase 1 ends there (_simplex with costs=0). If instead it ends
    with the artificial basic, rhs_0 > 0 means no feasible point, and
    rhs_0 = 0 an artificial to evict."""
    crash = _crash(tableau, basis, n)
    if crash is not None:
        return tableau, basis, crash
    # Phase 1 prices with the artificial's row (see above).
    _simplex(tableau, basis, 0)
    n_real = len(tableau[0]) - 1
    if basis[0] == n_real and tableau[0][-1]:
        return None
    _evict_artificials(tableau, basis, n_real)
    return tableau, basis, 0


def solve_lp(objective, rows, maximize=True) -> LPResult:
    """Optimize objective . x over the region rows, with x >= 0.

    objective: sequence of int coefficients (one per variable).
    rows: a Region over as many variables.
    """
    n = len(objective)
    g = gcd(*objective) or 1  # TypeError on any value but an int
    if rows.n != n:
        raise ValueError("objective arity mismatch")
    start = rows._base
    if start is None:
        return LPResult("infeasible")
    base, basis, _ = start
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
    res = LPResult("optimal")
    res._optimum = rows, maximize, tableau, basis
    res._ratio = sum([c * rhs * (big // d) for c, rhs, d in priced]), big
    del res.value, res.solution  # built on their first read
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
            c = [v - k * a for v, a in zip(c, row)]
    return _coprime(c)


def _coprime(row, j=0):
    """The int row divided by the gcd of its entries. When row[j] and the
    rhs, row[-1], are coprime, so is the row, and it comes back as it is
    with no pass over its entries."""
    if gcd(row[j], row[-1]) == 1:
        return row
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _crash(tableau, basis, n):
    """Start a tableau whose one artificial sits in row 0 in one pivot, when
    a column allows it: pivot row 0 on the smallest column j < n that is
    positive in row 0 and <= 0 in every other row. Returns None when no
    column allows it, else the columns positive at some feasible point, as
    an int mask: every column that allows it when row 0's rhs is positive,
    none when it is 0.

    Every other row is a "<=" row with rhs >= 0 and its slack basic, so the
    pivot leaves it the rhs p*rhs_r - r_j*rhs_0 >= 0 (p: row 0's entry at j)
    and a positive slack coefficient: the start is basic feasible, and the
    artificial, now nonbasic, has no column to drop. No slack column is
    positive in row 0, so j < n loses no candidate. The same holds for
    each column that allows the pivot: alone, at rhs_0/p > 0, it is a
    feasible point. The feasible set is convex, so the mean of those
    points is feasible too, and positive on each of their columns.
    """
    art = tableau[0]
    columns = [j for j in range(n) if art[j] > 0]
    for row in tableau[1:]:
        columns = [j for j in columns if row[j] <= 0]
    if not columns:
        return None
    positive = sum([1 << j for j in columns]) if art[-1] else 0
    _pivot(tableau, basis, 0, columns[0])
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


def _simplex(tableau, basis, costs=-1):
    """Maximize from a basic feasible tableau whose row costs (the last by
    default) holds the reduced costs (and minus the objective value), or a
    positive multiple of them. When costs is a constraint row, its entries
    price the columns only while its basic variable is basic: the run ends
    as soon as that variable leaves."""
    cols = len(tableau[costs]) - 1
    degenerate = 0
    while True:
        cost = tableau[costs]
        entering = None
        if degenerate < DEGENERATE_RUN:
            # Dantzig: the first of the largest positive reduced costs.
            best = max(cost[:cols]) if cols else 0
            if best > 0:
                entering = cost.index(best)
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
        if leaving == costs:
            return "optimal"


def _pivot(tableau, basis, row, col):
    """Pivot on tableau[row][col] > 0. Rows are replaced, never changed in
    place, so tableaux that start from one Region may share rows.

    Each changed row is q*r - f*(pivot row), made coprime, with the pivot p
    and r's entry f in the pivot column both divided by gcd(p, f). Its entry
    in the leaving variable's column is -f*d, with d the pivot row's basic
    coefficient, as r is 0 there, so never 0: _coprime tests it against the
    rhs, and keeps the row with no pass over it when the two are coprime. A
    leaving artificial has no column: its index is the rhs's, and the test
    then reads the rhs alone."""
    pr = tableau[row]
    p = pr[col]
    leaving = basis[row]
    for i, r in enumerate(tableau):
        f = r[col]
        if f and i != row:
            g = gcd(p, f)
            q, f = p // g, f // g
            tableau[i] = _coprime([q * a - f * b for a, b in zip(r, pr)], leaving)
    basis[row] = col
