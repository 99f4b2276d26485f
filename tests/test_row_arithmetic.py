"""linprog's exact row operations against their plain form in
row_reference: the same rows, every row coprime with a positive basic
coefficient.

linprog reduces each rewrite's multipliers by their gcd before it forms a
row, and proves the row coprime from two entries where it can. Both
shortcuts must leave exactly the rows of the plain form, on seeded random
tableaux and on every pivot, pricing and Charnes-Cooper start that the
corpus grid, the random-assess pool and the chain up to 8 atoms make.
"""

from __future__ import annotations

import random
from math import gcd

import pytest

import row_reference
import solver_counts
from probarg import linprog
from probarg.linprog import Region, solve_lp

# Entries of the random tableaux: small ones with shared factors, so the
# multipliers of a rewrite often have a gcd > 1, and large ones, so rows
# with large coprime entries come up too.
SMALL = (0, 0, 0, 1, -1, 2, -2, 3, -4, 6, -6, 10, 12, -15)


def small(rng):
    return rng.choice(SMALL)


def large(rng):
    shared = rng.choice((6, 10, 35)) * rng.randrange(-(10**12), 10**12)
    return rng.choice((0, rng.randrange(-(10**24), 10**24), shared))


def random_tableau(rng, n, m, entry):
    """A canonical int tableau of m rows over n variables and m slacks:
    row i basic in slack n + i with a positive coefficient, rhs >= 0 (0 in
    about a third of the rows), every row coprime."""
    tableau = []
    for i in range(m):
        rhs = 0 if rng.random() < 1 / 3 else abs(entry(rng)) or 1
        row = [entry(rng) for _ in range(n)] + [0] * m + [rhs]
        row[n + i] = rng.choice((1, 1, 2, 3, 7, 10**9 + 7))
        tableau.append(row_reference.coprime(row))
    return tableau, list(range(n, n + m))


def pivot_choice(rng, tableau, basis):
    """(row, col): a random column positive in some constraint row, and
    the row the ratio test picks for it, or None when no column is."""
    rows = range(len(basis))
    cols = [
        j
        for j in range(len(tableau[0]) - 1)
        if j not in basis and any(tableau[i][j] > 0 for i in rows)
    ]
    if not cols:
        return None
    col = rng.choice(cols)
    row = None
    for i in rows:
        # the first smallest rhs_i / a_i over a_i > 0
        a = tableau[i][col]
        if a > 0 and (row is None or tableau[i][-1] * tableau[row][col] < tableau[row][-1] * a):
            row = i
    return row, col


def assert_invariant(tableau, basis):
    """Every constraint row coprime, with a positive basic coefficient and
    rhs >= 0; a cost row after them, and a row whose basic variable is the
    artificial (its index is the rhs's, with no column), coprime or all 0."""
    for row, b in zip(tableau, basis):
        if b == len(row) - 1:
            assert gcd(*row) in (0, 1) and row[-1] >= 0, row
        else:
            assert gcd(*row) == 1 and row[b] > 0 and row[-1] >= 0, (row, b)
    for row in tableau[len(basis):]:
        assert gcd(*row) in (0, 1), row


@pytest.mark.parametrize("entry", [small, large])
def test_pivots_and_pricing_leave_the_reference_rows(entry):
    """Seeded random tableaux, with a cost row priced by _reduced_costs,
    then pivoted in turn: after each step both forms hold the same rows."""
    rng = random.Random(f"row arithmetic {entry.__name__}")
    rewrites = 0
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 5)
        tableau, basis = random_tableau(rng, n, m, entry)
        c = [entry(rng) for _ in range(n)] + [0] * (m + 1)
        cost = linprog._reduced_costs(tableau, basis, c)
        assert cost == row_reference.reduced_costs(tableau, basis, c)
        tableau.append(cost)
        assert_invariant(tableau, basis)
        reference, ref_basis = tableau[:], basis[:]
        for _ in range(6):
            choice = pivot_choice(rng, tableau, basis)
            if choice is None:
                break
            rewrites += sum(1 for r in tableau if r[choice[1]]) - 1
            linprog._pivot(tableau, basis, *choice)
            row_reference.pivot(reference, ref_basis, *choice)
            assert (tableau, basis) == (reference, ref_basis)
            assert_invariant(tableau, basis)
            c = [entry(rng) for _ in range(len(tableau[0]) - 1)] + [0]
            assert linprog._reduced_costs(tableau[:-1], basis, c) == row_reference.reduced_costs(
                tableau[:-1], basis, c
            )
    assert rewrites > 1000


def random_region(rng):
    """A Region over 2..6 variables with 1..4 random rows (row, k), each
    coprime with its k."""
    n = rng.randint(2, 6)
    rows = []
    for _ in range(rng.randint(1, 4)):
        row, k = [rng.randint(-7, 7) for _ in range(n)], rng.choice((1, 2, 3, 5, 12))
        g = gcd(*row, k)
        rows.append(([v // g for v in row], k // g))
    return Region(n, rows)


def test_charnes_cooper_leaves_the_reference_rows():
    """Seeded random regions and objectives with a positive maximum: the
    Charnes-Cooper start holds the rows of the plain rewrite. Among them
    are maxima other than 1, and rows where gcd(P*K, P*rhs) does not divide
    the new rhs rhs*K*Q, so the rhs term must be in the multipliers' gcd."""
    rng = random.Random("charnes-cooper rows")
    not_one = rhs_matters = 0
    for _ in range(400):
        region = random_region(rng)
        if region.support() is None:
            continue
        c = [rng.randint(-3, 9) for _ in range(region.n)]
        res = solve_lp(c, region)
        if res.status != "optimal" or res.numerator <= 0:
            continue
        derived = region.charnes_cooper(res)
        tableau, basis, _ = derived._base
        assert tableau == row_reference.charnes_cooper_rows(res)
        assert_invariant(tableau, basis)
        p, q = res._ratio
        not_one += p != q
        k = -res._optimum[2][-1][-1]
        rhs_matters += any(
            row[-1] * k * q % gcd(p * k, p * row[-1]) for row in res._optimum[2][:-1] if row[-1]
        )
    assert not_one > 50 and rhs_matters > 5


@pytest.fixture
def replayed(monkeypatch):
    """Counts of the pivots, pricings and Charnes-Cooper starts made while
    in use, each checked against row_reference as it is made."""
    counts = dict.fromkeys(("pivots", "pricings", "charnes-cooper"), 0)
    pivot, reduced_costs = linprog._pivot, linprog._reduced_costs
    charnes_cooper = Region.charnes_cooper

    def checked_pivot(tableau, basis, row, col):
        reference, ref_basis = tableau[:], basis[:]
        pivot(tableau, basis, row, col)
        row_reference.pivot(reference, ref_basis, row, col)
        assert (tableau, basis) == (reference, ref_basis)
        assert_invariant(tableau, basis)
        counts["pivots"] += 1

    def checked_reduced_costs(tableau, basis, c):
        got = reduced_costs(tableau, basis, c)
        assert got == row_reference.reduced_costs(tableau, basis, c)
        counts["pricings"] += 1
        return got

    def checked_charnes_cooper(self, optimum):
        derived = charnes_cooper(self, optimum)
        assert derived._base[0] == row_reference.charnes_cooper_rows(optimum)
        counts["charnes-cooper"] += 1
        return derived

    monkeypatch.setattr(linprog, "_pivot", checked_pivot)
    monkeypatch.setattr(linprog, "_reduced_costs", checked_reduced_costs)
    monkeypatch.setattr(Region, "charnes_cooper", checked_charnes_cooper)
    return counts


def test_replay_of_the_corpus_grid_pool_and_chain(replayed):
    """Every pivot, pricing and Charnes-Cooper start of the corpus grid,
    the random-assess pool and the chain over 3..8 atoms leaves the rows
    the plain form leaves, and every pivot keeps each row coprime with a
    positive basic coefficient."""
    solver_counts.corpus_grid()
    solver_counts.pool()
    for n in range(3, 9):
        solver_counts.chain(n)
    assert replayed["pivots"] > 2000
    assert replayed["pricings"] > 500 and replayed["charnes-cooper"] > 50
