"""Counterfactuals as nested conditional random quantities.

A counterfactual "if B were the case, C would be the case" is modeled as the
quantity (C|B) evaluated under the condition A, for A incompatible with B.
On every A-world the quantity sits at its void value mu = p(C|B), so its
conditional prevision given A equals p(C|B) no matter how mass is spread
over the A-worlds. The module builds the quantity pointwise and computes
that average instead of echoing the input back.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .coherence import as_fraction
from .events import And, Formula, declared, is_satisfiable, truth_table

ZERO = Fraction(0)
ONE = Fraction(1)


class ConditionalRandomQuantity(Value):
    """Numeric rendering of a conditional event: 1 where antecedent and
    consequent hold, 0 where the antecedent holds but the consequent fails,
    the void value mu on the antecedent's complement. values are aligned
    with constituents(atomset)."""

    __slots__ = ("atomset", "values", "consequent", "antecedent")

    def value_at(self, valuation) -> Fraction:
        world = 0
        for k in self.atomset:
            v = valuation.get(k)
            if v not in (False, True):
                raise KeyError(f"valuation not over atoms {self.atomset}")
            world = 2 * world + bool(v)
        return self.values[world]


def crq_of(c: Formula, b: Formula, mu, atomset) -> ConditionalRandomQuantity:
    """Build the conditional random quantity of c given b with void value mu."""
    mu = as_fraction(mu)
    if not (ZERO <= mu <= ONE):
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    atomset = tuple(atomset)
    m = truth_table(b, atomset)
    if not m:
        raise ValueError(f"conditioning event is unsatisfiable: {b}")
    # declared() refuses an empty atom set, which truth_table() takes
    e = truth_table(c, declared(atomset))
    values = tuple(
        mu if not m >> w & 1 else ONE if e >> w & 1 else ZERO
        for w in range(1 << len(atomset))
    )
    return ConditionalRandomQuantity(atomset, values, c, b)


def nested_prevision(c: Formula, b: Formula, a: Formula, p_cb, atomset) -> Fraction:
    """Prevision of (c|b) conditional on a, for a incompatible with b.

    Requires a AND b unsatisfiable (checked exhaustively); the general
    compatible-antecedents case is deliberately not handled.
    """
    p_cb = as_fraction(p_cb)
    atomset = tuple(atomset)
    if is_satisfiable(And(a, b), atomset):
        raise ValueError("incompatibility precondition violated: a and b are compatible")
    on = truth_table(a, atomset)
    if not on:
        raise ValueError(f"conditioning event is unsatisfiable: {a}")
    quantity = crq_of(c, b, p_cb, atomset)
    on_a = [val for w, val in enumerate(quantity.values) if on >> w & 1]
    # The quantity is constant on a's worlds, so any admissible conditional
    # averaging yields the same number; uniform weights make that explicit.
    prevision = sum(on_a, ZERO) / len(on_a)
    if any(val != prevision for val in on_a):
        raise RuntimeError("quantity is not constant on the conditioning event")
    return prevision
