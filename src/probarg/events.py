"""Propositional events, constituents, and three-valued conditional objects.

Formulas are immutable trees over named atoms. A ConditionalObject pairs a
consequent with an antecedent; with antecedent Top it degenerates to an
unconditional event. Conditionals evaluate to a third value (VOID) whenever
their antecedent is false, matching the conditional-event truth conditions.

The worlds over n declared atoms are the 2^n constituents, indexed 0 ..
2^n - 1 in constituents() order. truth_table(f, names) gives a formula the
int whose bit j is its value at world j: an atom's table is a block
pattern, and the connectives are bit operations on their operands' tables.
The solver works on these tables only; eval_classical, which evaluates a
formula at one valuation, serves the rest of the package.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Mapping

from ._value import Value, _set

MAX_ATOMS = 16


class Formula(Value):
    """Base class for event formulas. Instances are immutable values."""

    __slots__ = ()

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("atom name must be nonempty")
        _set(self, "name", name)

    def __str__(self):
        return self.name


class Not(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        _set(self, "operand", operand)

    def __str__(self):
        return f"not({self.operand})"


class _Binary(Formula):
    """A connective over two formulas; subclasses name it in _word."""

    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self):
        return f"{self._word}({self.left}, {self.right})"


class And(_Binary):
    __slots__ = ()
    _word = "and"


class Or(_Binary):
    __slots__ = ()
    _word = "or"


class MaterialImp(_Binary):
    __slots__ = ()
    _word = "implies"


class Top(Formula):
    __slots__ = ()

    def __str__(self):
        return "top"


class Bottom(Formula):
    __slots__ = ()

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
    if isinstance(f, _Binary):
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


def declared(atomset) -> list:
    """The declared atom names as a list. ValueError when there are none,
    more than MAX_ATOMS, or a name twice; constituents() and the solver
    both check an atom set here."""
    names = list(atomset)
    if not names:
        raise ValueError("no atoms declared")
    if len(names) > MAX_ATOMS:
        raise ValueError(f"at most {MAX_ATOMS} atoms supported, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate atom names")
    return names


def constituents(atomset) -> list:
    """All 2^n valuations of the declared atoms, in lexicographic order.

    The first atom is the most significant position and False sorts before
    True, so for (A, C) the order is FF, FT, TF, TT. The order is part of
    the contract: mass vectors, witnesses and truth tables are indexed by it.
    """
    names = declared(atomset)
    return [
        dict(zip(names, bits))
        for bits in itertools.product((False, True), repeat=len(names))
    ]


def truth_table(f: Formula, names) -> int:
    """f over the worlds of constituents(names), as an int: bit j is f's
    value at world j.

    names: a sequence of atom names as constituents() takes them, with
    every atom of f among them, or none: with no names there is one world,
    and a constant's table is 0 or 1. In world j the atom at position i is
    true when bit n-1-i of j is set (n = len(names)), so its table repeats
    2^(n-1-i) zeros, then as many ones.
    """
    return tabulator(declared(names) if names else [])(f)


def tabulator(names):
    """truth_table over names as a function of the formula, for many
    formulas over one atom set: the atom map and the table of Top are made
    once. names must have passed declared() (or be empty); a formula with an
    atom not among them raises KeyError."""
    n = len(names)
    shifts = {name: n - 1 - i for i, name in enumerate(names)}
    full = (1 << (1 << n)) - 1
    return lambda f: _table(f, shifts, full)


def _table(f, shifts, full):
    """truth_table over shifts (atom name -> bit of the world index) and
    full, the table of Top."""
    if isinstance(f, Atom):
        block = 1 << shifts[f.name]
        # ones on the upper half of each 2*block run of worlds, the run
        # doubled until it covers them all
        table, width, size = ((1 << block) - 1) << block, 2 * block, full.bit_length()
        while width < size:
            table |= table << width
            width *= 2
        return table
    if isinstance(f, Not):
        return full ^ _table(f.operand, shifts, full)
    if isinstance(f, And):
        return _table(f.left, shifts, full) & _table(f.right, shifts, full)
    if isinstance(f, Or):
        return _table(f.left, shifts, full) | _table(f.right, shifts, full)
    if isinstance(f, MaterialImp):
        return (full ^ _table(f.left, shifts, full)) | _table(f.right, shifts, full)
    if isinstance(f, Top):
        return full
    if isinstance(f, Bottom):
        return 0
    raise TypeError(f"not a formula: {f!r}")


def is_satisfiable(f: Formula, atomset=None) -> bool:
    names = sorted(atoms_of(f)) if atomset is None else list(atomset)
    return truth_table(f, names) != 0


def equivalent(f: Formula, g: Formula, atomset=None) -> bool:
    """Truth-table equivalence over the union of the formulas' atoms."""
    names = sorted(atoms_of(f) | atoms_of(g)) if atomset is None else list(atomset)
    return truth_table(f, names) == truth_table(g, names)


class TruthValue3(enum.Enum):
    TRUE3 = "true"
    FALSE3 = "false"
    VOID = "void"


class ConditionalObject(Value):
    """A conditional event: three-valued, void when the antecedent is false.

    Antecedent Top encodes an unconditional event. Bottom-equivalent
    antecedents are rejected at construction.
    """

    __slots__ = ("consequent", "antecedent")

    def __init__(self, consequent: Formula, antecedent: Formula = TOP):
        if not is_satisfiable(antecedent):
            raise ValueError(f"antecedent is unsatisfiable: {antecedent}")
        _set(self, "consequent", consequent)
        _set(self, "antecedent", antecedent)

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


class SurfaceStatement(Value):
    """Base for uninterpreted statements as they appear in an argument."""

    __slots__ = ()


class _Conditional(SurfaceStatement):
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        _set(self, "antecedent", antecedent)
        _set(self, "consequent", consequent)


class If(_Conditional):
    __slots__ = ()


class NegIf(_Conditional):
    """A negated conditional; negation scope is fixed only by expansion."""

    __slots__ = ()


class Every(SurfaceStatement):
    __slots__ = ("subject", "predicate")

    def __init__(self, subject: str, predicate: str):
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)


class Plain(SurfaceStatement):
    __slots__ = ("formula",)

    def __init__(self, formula: Formula):
        _set(self, "formula", formula)


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
