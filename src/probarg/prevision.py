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
from .events import (
    And,
    Formula,
    constituents,
    eval_classical,
    is_satisfiable,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class ConditionalRandomQuantity(Value):
    """Numeric rendering of a conditional event: 1 where antecedent and
    consequent hold, 0 where the antecedent holds but the consequent fails,
    mu on the antecedent's complement. values are aligned with
    constituents(atomset)."""

    __slots__ = ("atomset", "values", "consequent", "antecedent", "mu")

    def value_at(self, valuation) -> Fraction:
        if all(k in valuation for k in self.atomset):
            for bits, val in zip(constituents(self.atomset), self.values):
                if all(valuation[k] == bits[k] for k in self.atomset):
                    return val
        raise KeyError(f"valuation not over atoms {self.atomset}")


def crq_of(c: Formula, b: Formula, mu, atomset) -> ConditionalRandomQuantity:
    """Build the conditional random quantity of c given b with void value mu."""
    mu = as_fraction(mu)
    if not (ZERO <= mu <= ONE):
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    atomset = tuple(atomset)
    if not is_satisfiable(b, atomset):
        raise ValueError(f"conditioning event is unsatisfiable: {b}")
    values = []
    for v in constituents(atomset):
        if not eval_classical(b, v):
            values.append(mu)
        elif eval_classical(c, v):
            values.append(ONE)
        else:
            values.append(ZERO)
    return ConditionalRandomQuantity(atomset, tuple(values), c, b, mu)


def nested_prevision(c: Formula, b: Formula, a: Formula, p_cb, atomset) -> Fraction:
    """Prevision of (c|b) conditional on a, for a incompatible with b.

    Requires a AND b unsatisfiable (checked exhaustively); the general
    compatible-antecedents case is deliberately not handled.
    """
    p_cb = as_fraction(p_cb)
    atomset = tuple(atomset)
    if is_satisfiable(And(a, b), atomset):
        raise ValueError("incompatibility precondition violated: a and b are compatible")
    if not is_satisfiable(a, atomset):
        raise ValueError(f"conditioning event is unsatisfiable: {a}")
    quantity = crq_of(c, b, p_cb, atomset)
    on_a = [
        val
        for v, val in zip(constituents(atomset), quantity.values)
        if eval_classical(a, v)
    ]
    # The quantity is constant on a's worlds, so any admissible conditional
    # averaging yields the same number; uniform weights make that explicit.
    prevision = sum(on_a, ZERO) / len(on_a)
    if any(val != prevision for val in on_a):
        raise RuntimeError("quantity is not constant on the conditioning event")
    return prevision
