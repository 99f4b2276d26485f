"""Rational rows and objectives in the int form probarg.linprog takes.

The tests state their systems in rationals, as the reference solver and the
feasibility checks read them, and hand linprog the int form made here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def int_row(coeffs, rel, rhs):
    """(coeffs, rel, rhs) as coprime ints with its slack unit k:
    (L*coeffs/g, rel, L*rhs/g, L/g), where L is the lcm of the
    denominators and g = gcd(L*coeffs, L*rhs, L). Divided by k it is the
    rational row again, so its slack has the rational row's unit. An "=="
    row has no slack, and rows_region refuses a unit on one: it comes as
    (L*coeffs/g, rel, L*rhs/g) with g = gcd(L*coeffs, L*rhs), a positive
    multiple of the rational row."""
    values = [Fraction(v) for v in [*coeffs, rhs]]
    big = lcm(*[v.denominator for v in values])
    ints = [v.numerator * (big // v.denominator) for v in values]
    if rel == "==":
        g = gcd(*ints) or 1
        return [v // g for v in ints[:-1]], rel, ints[-1] // g
    g = gcd(*ints, big)
    return [v // g for v in ints[:-1]], rel, ints[-1] // g, big // g


def int_rows(rows):
    return [int_row(*row) for row in rows]


def int_objective(objective):
    """(ints, scale): the objective times scale, the lcm of its
    denominators. A solve of ints has scale times the objective value."""
    values = [Fraction(v) for v in objective]
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale
