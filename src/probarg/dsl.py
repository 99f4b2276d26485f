"""Argument DSL: a small text format for uncertain argument forms.

    task Prdx {
      atoms: A, C
      premise: quite_sure(not(A))
      conclusion: if(A, C)
    }

Whitespace is insignificant, '#' starts a comment, numbers are exact
rationals written as decimals or "p/q". Parsing errors carry line/column.
Lowering turns a parsed argument plus an interpretation of the conditional
into an assessment and a query object.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from ._value import Value
from .coherence import Assessment, AssessmentEntry, ClassificationConfig, unit_interval
from .events import (
    And,
    Atom,
    ConditionalObject,
    Every,
    Formula,
    If,
    Interpretation,
    MaterialImp,
    NegIf,
    Not,
    Or,
    Plain,
    SurfaceStatement,
    expand,
)

ONE = Fraction(1)


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# --- premise strengths -------------------------------------------------------


class QuiteSure(Value):
    __slots__ = ()


class Certain(Value):
    __slots__ = ()


class Numeric(Value):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = unit_interval(lo, hi, "premise interval")
        Value.__init__(self, lo, hi)


class PremiseSpec(Value):
    """statement: a SurfaceStatement; strength: QuiteSure, Certain or Numeric."""

    __slots__ = ("statement", "strength")


class ArgumentSpec(Value):
    """A parsed task: atoms are names, premises are PremiseSpecs and the
    conclusion is a SurfaceStatement."""

    __slots__ = ("name", "atoms", "premises", "conclusion")


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>\d+(?:\.\d+|/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}()\[\],:])
    """,
    re.VERBOSE,
)

# Words that open a formula or a statement, so no atom may be named by one.
KEYWORDS = frozenset({"not", "and", "or", "implies", "if", "not_if", "every"})

# Connectives a formula may nest; deeper input is a ParseError, not a
# RecursionError.
MAX_NESTING = 100


# kind is "num", "ident", "punct" or "eof".
Token = namedtuple("Token", "kind text line col")


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        raise ParseError(f"{message} (got {shown!r})", tok.line, tok.col)

    def expect(self, text) -> Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected {text!r}", tok)
        return tok

    def ident(self, what="identifier") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            self.fail(f"expected {what}", tok)
        return tok

    def number(self) -> Fraction:
        tok = self.next()
        if tok.kind != "num":
            self.fail("expected number", tok)
        try:
            return Fraction(tok.text)
        except ZeroDivisionError:
            self.fail("zero denominator", tok)

    # file := task+
    def parse_file(self):
        specs = []
        seen = set()
        while self.peek().kind != "eof":
            spec = self.parse_task()
            if spec.name in seen:
                self.fail(f"duplicate task name {spec.name!r}")
            seen.add(spec.name)
            specs.append(spec)
        if not specs:
            self.fail("expected at least one task")
        return specs

    def parse_task(self) -> ArgumentSpec:
        self.expect("task")
        name = self.ident("task name").text
        self.expect("{")
        self.expect("atoms")
        self.expect(":")
        atoms = [self.atom_declaration()]
        while self.peek().text == ",":
            self.next()
            atoms.append(self.atom_declaration())
        if len(set(atoms)) != len(atoms):
            self.fail(f"duplicate atom in task {name!r}")
        declared = set(atoms)
        premises = []
        while self.peek().text == "premise":
            premises.append(self.parse_premise(declared))
        self.expect("conclusion")
        self.expect(":")
        if self.peek().text == "every":
            self.fail("'every' is a premise form, not a conclusion")
        conclusion = self.parse_stmt(declared)
        self.expect("}")
        return ArgumentSpec(name, tuple(atoms), tuple(premises), conclusion)

    def atom_declaration(self) -> str:
        tok = self.ident("atom name")
        if tok.text in KEYWORDS:
            self.fail(f"keyword {tok.text!r} cannot name an atom", tok)
        return tok.text

    def parse_premise(self, declared) -> PremiseSpec:
        self.expect("premise")
        self.expect(":")
        head = self.ident("premise strength")
        if head.text in ("quite_sure", "certain"):
            self.expect("(")
            stmt = self.parse_stmt(declared)
            self.expect(")")
            strength = QuiteSure() if head.text == "quite_sure" else Certain()
            return PremiseSpec(stmt, strength)
        if head.text == "P":
            self.expect("(")
            stmt = self.parse_stmt(declared)
            self.expect(")")
            self.expect("in")
            self.expect("[")
            lo = self.number()
            self.expect(",")
            hi = self.number()
            self.expect("]")
            try:
                strength = Numeric(lo, hi)
            except ValueError as err:
                self.fail(str(err), head)
            return PremiseSpec(stmt, strength)
        self.fail("expected 'quite_sure', 'certain' or 'P'", head)

    def parse_stmt(self, declared) -> SurfaceStatement:
        tok = self.peek()
        if tok.text in ("if", "not_if"):
            self.next()
            self.expect("(")
            ant = self.parse_form(declared)
            self.expect(",")
            cons = self.parse_form(declared)
            self.expect(")")
            cls = If if tok.text == "if" else NegIf
            return cls(ant, cons)
        if tok.text == "every":
            self.next()
            self.expect("(")
            subject = self._atom_name(declared)
            self.expect(",")
            predicate = self._atom_name(declared)
            self.expect(")")
            return Every(subject, predicate)
        return Plain(self.parse_form(declared))

    def _atom_name(self, declared) -> str:
        tok = self.ident("atom name")
        if tok.text not in declared:
            self.fail(f"undeclared atom {tok.text}", tok)
        return tok.text

    def parse_form(self, declared, depth=0) -> Formula:
        """A formula over the atoms in declared, or over any atom when
        declared is None; depth counts the connectives around it."""
        tok = self.next()
        if tok.kind != "ident":
            self.fail("expected formula", tok)
        if tok.text in ("not", "and", "or", "implies") and depth == MAX_NESTING:
            self.fail(f"formula nested more than {MAX_NESTING} deep", tok)
        if tok.text == "not":
            self.expect("(")
            inner = self.parse_form(declared, depth + 1)
            self.expect(")")
            return Not(inner)
        if tok.text in ("and", "or", "implies"):
            self.expect("(")
            left = self.parse_form(declared, depth + 1)
            self.expect(",")
            right = self.parse_form(declared, depth + 1)
            self.expect(")")
            cls = {"and": And, "or": Or, "implies": MaterialImp}[tok.text]
            return cls(left, right)
        if declared is not None and tok.text not in declared:
            self.fail(f"undeclared atom {tok.text}", tok)
        return Atom(tok.text)


def parse(text: str):
    """Parse DSL text into a list of ArgumentSpec."""
    return _Parser(text).parse_file()


def parse_formula(text: str) -> Formula:
    """Parse one formula, reading every identifier other than the
    connectives not/and/or/implies as an atom. Input left after the
    formula is a ParseError."""
    parser = _Parser(text)
    form = parser.parse_form(None)
    if parser.peek().kind != "eof":
        parser.fail("trailing input after formula")
    return form


# --- lowering ----------------------------------------------------------------


def _strength_interval(strength, cfg: ClassificationConfig):
    if isinstance(strength, QuiteSure):
        return cfg.theta, ONE
    if isinstance(strength, Certain):
        return ONE, ONE
    return strength.lo, strength.hi


def lower(spec: ArgumentSpec, i: Interpretation, cfg: ClassificationConfig):
    """Lower a parsed argument to (Assessment, query) under one interpretation.

    "Every S is P" always becomes a constraint on (P|S): the syllogistic
    premise is read as a conditional probability assertion under all four
    interpretations of the conditional.
    """
    entries = []
    for p in spec.premises:
        lo, hi = _strength_interval(p.strength, cfg)
        if isinstance(p.statement, Every):
            obj = ConditionalObject(Atom(p.statement.predicate), Atom(p.statement.subject))
        else:
            obj = expand(p.statement, i)
        entries.append(AssessmentEntry(obj, lo, hi))
    query = expand(spec.conclusion, i)
    return Assessment(tuple(entries)), query
