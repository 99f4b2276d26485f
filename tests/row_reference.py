"""The exact row operations of probarg.linprog in their plain form, for the
tests: each new row is formed from the unreduced multipliers and then
divided by the gcd of all its entries.

linprog divides the multipliers by their common gcd first, and skips the
pass over a row when two of its entries are coprime. Each of its rows is
then one of these rows divided by a positive int, and made coprime too. A
positive direction has only one coprime int vector, so both must leave the
same rows, which tests/test_row_arithmetic.py checks.

Nothing in src/ imports it.
"""

from __future__ import annotations

from math import gcd, lcm


def coprime(row):
    """The int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def pivot(tableau, basis, row, col):
    """Pivot on tableau[row][col] > 0: every other row r with f = r[col]
    != 0 becomes p*r - f*(pivot row), made coprime, with p the pivot."""
    pr = tableau[row]
    p = pr[col]
    for i, r in enumerate(tableau):
        f = r[col]
        if f and i != row:
            tableau[i] = coprime([p * a - f * b for a, b in zip(r, pr)])
    basis[row] = col


def reduced_costs(tableau, basis, c):
    """The reduced-cost row of objective c at the tableau's basis:
    L*c - sum_i c_B(i) * (L/d_i) * a_i, made coprime, with L the lcm of the
    d_i of the priced rows."""
    priced = [(row, b) for row, b in zip(tableau, basis) if c[b]]
    if priced:
        big = lcm(*[row[b] for row, b in priced])
        priced = [(row, big // row[b] * c[b]) for row, b in priced]
        c = [big * v for v in c]
        for row, k in priced:
            for j, v in enumerate(row):
                if v:
                    c[j] -= k * v
    return coprime(c)


def charnes_cooper_rows(optimum):
    """The rows of the tableau Region.charnes_cooper(optimum) starts from:
    with P/Q the maximum's int ratio and -K the cost row's last entry, each
    row with rhs != 0 becomes P*K*row + P*rhs*(cost row) on the columns,
    with rhs rhs*K*Q, made coprime; a row with rhs 0 stays."""
    p, q = optimum._ratio
    _, _, final, _ = optimum._optimum
    cost = final[-1]
    k = -cost[-1]
    rows = []
    for row in final[:-1]:
        rhs = row[-1]
        if rhs:
            row = coprime([p * k * a + p * rhs * r for a, r in zip(row[:-1], cost)] + [rhs * k * q])
        rows.append(row)
    return rows
