"""Propositional events, constituents, and three-valued conditional objects.

Formulas are immutable trees over named atoms. A ConditionalObject pairs a
consequent with an antecedent; with antecedent Top it degenerates to an
unconditional event. Conditionals evaluate to a third value (VOID) whenever
their antecedent is false, matching the conditional-event truth conditions.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Mapping

MAX_ATOMS = 16


class Formula:
    """Base class for event formulas. Instances are immutable values."""

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom name must be nonempty")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __str__(self):
        return f"not({self.operand})"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"and({self.left}, {self.right})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"or({self.left}, {self.right})"


@dataclass(frozen=True)
class MaterialImp(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"implies({self.left}, {self.right})"


@dataclass(frozen=True)
class Top(Formula):
    def __str__(self):
        return "top"


@dataclass(frozen=True)
class Bottom(Formula):
    def __str__(self):
        return "bottom"


TOP = Top()
BOTTOM = Bottom()

# Valuations are plain mappings from atom name to bool, total over the
# declared atom set.
Valuation = Mapping[str, bool]


def atoms_of(f: Formula) -> frozenset:
    """Set of atom names occurring in a formula."""
    if isinstance(f, Atom):
        return frozenset([f.name])
    if isinstance(f, Not):
        return atoms_of(f.operand)
    if isinstance(f, (And, Or, MaterialImp)):
        return atoms_of(f.left) | atoms_of(f.right)
    return frozenset()


def eval_classical(f: Formula, v: Valuation) -> bool:
    """Standard bivalent evaluation; MaterialImp(A, C) is false only at A true, C false."""
    if isinstance(f, Atom):
        return v[f.name]
    if isinstance(f, Not):
        return not eval_classical(f.operand, v)
    if isinstance(f, And):
        return eval_classical(f.left, v) and eval_classical(f.right, v)
    if isinstance(f, Or):
        return eval_classical(f.left, v) or eval_classical(f.right, v)
    if isinstance(f, MaterialImp):
        return (not eval_classical(f.left, v)) or eval_classical(f.right, v)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    raise TypeError(f"not a formula: {f!r}")


def constituents(atomset) -> list:
    """All 2^n valuations of the declared atoms, in lexicographic order.

    The first atom is the most significant position and False sorts before
    True, so for (A, C) the order is FF, FT, TF, TT. The order is part of
    the contract: mass vectors and witnesses are indexed by it.
    """
    names = list(atomset)
    if not names:
        raise ValueError("no atoms declared")
    if len(names) > MAX_ATOMS:
        raise ValueError(f"at most {MAX_ATOMS} atoms supported, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate atom names")
    return [
        dict(zip(names, bits))
        for bits in itertools.product((False, True), repeat=len(names))
    ]


def is_satisfiable(f: Formula, atomset=None) -> bool:
    names = sorted(atoms_of(f)) if atomset is None else list(atomset)
    if not names:
        return eval_classical(f, {})
    return any(eval_classical(f, v) for v in constituents(names))


def equivalent(f: Formula, g: Formula, atomset=None) -> bool:
    """Truth-table equivalence over the union of the formulas' atoms."""
    names = sorted(atoms_of(f) | atoms_of(g)) if atomset is None else list(atomset)
    if not names:
        return eval_classical(f, {}) == eval_classical(g, {})
    return all(eval_classical(f, v) == eval_classical(g, v) for v in constituents(names))


class TruthValue3(enum.Enum):
    TRUE3 = "true"
    FALSE3 = "false"
    VOID = "void"


@dataclass(frozen=True)
class ConditionalObject:
    """A conditional event: three-valued, void when the antecedent is false.

    Antecedent Top encodes an unconditional event. Bottom-equivalent
    antecedents are rejected at construction.
    """

    consequent: Formula
    antecedent: Formula = TOP

    def __post_init__(self):
        if not is_satisfiable(self.antecedent):
            raise ValueError(f"antecedent is unsatisfiable: {self.antecedent}")

    def atoms(self) -> frozenset:
        return atoms_of(self.consequent) | atoms_of(self.antecedent)

    def __str__(self):
        if self.antecedent == TOP:
            return str(self.consequent)
        return f"({self.consequent} | {self.antecedent})"


def eval3(obj: ConditionalObject, v: Valuation) -> TruthValue3:
    """Three-valued evaluation: VOID off the antecedent, classical on it."""
    if not eval_classical(obj.antecedent, v):
        return TruthValue3.VOID
    if eval_classical(obj.consequent, v):
        return TruthValue3.TRUE3
    return TruthValue3.FALSE3


# --- surface statements and their interpretation-dependent expansion ---


class SurfaceStatement:
    """Base for uninterpreted statements as they appear in an argument."""


@dataclass(frozen=True)
class If(SurfaceStatement):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class NegIf(SurfaceStatement):
    """A negated conditional; negation scope is fixed only by expansion."""

    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class Every(SurfaceStatement):
    subject: str
    predicate: str


@dataclass(frozen=True)
class Plain(SurfaceStatement):
    formula: Formula


class Interpretation(enum.Enum):
    """Competing readings of a surface conditional.

    MATERIAL_WIDE and MATERIAL_NARROW differ only in where negation lands
    on a negated conditional: the whole conditional vs its consequent.
    """

    CONDITIONAL_EVENT = "conditional_event"
    MATERIAL_WIDE = "material_wide"
    MATERIAL_NARROW = "material_narrow"
    CONJUNCTION = "conjunction"


def expand(s: SurfaceStatement, i: Interpretation) -> ConditionalObject:
    """Turn a surface statement into a conditional object under one reading.

    Negating a conditional event negates its consequent (the coherence
    convention); the conjunction reading negates with wide scope.
    """
    if isinstance(s, Every):
        raise ValueError("lower Every before expand")
    if isinstance(s, Plain):
        return ConditionalObject(s.formula, TOP)
    a, c = s.antecedent, s.consequent
    if isinstance(s, If):
        if i is Interpretation.CONDITIONAL_EVENT:
            return ConditionalObject(c, a)
        if i in (Interpretation.MATERIAL_WIDE, Interpretation.MATERIAL_NARROW):
            return ConditionalObject(MaterialImp(a, c), TOP)
        return ConditionalObject(And(a, c), TOP)
    if isinstance(s, NegIf):
        if i is Interpretation.CONDITIONAL_EVENT:
            return ConditionalObject(Not(c), a)
        if i is Interpretation.MATERIAL_NARROW:
            return ConditionalObject(MaterialImp(a, Not(c)), TOP)
        if i is Interpretation.MATERIAL_WIDE:
            return ConditionalObject(Not(MaterialImp(a, c)), TOP)
        return ConditionalObject(Not(And(a, c)), TOP)
    raise TypeError(f"not a surface statement: {s!r}")
