import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dsl_format import format_spec
from probarg.coherence import ClassificationConfig
from probarg.dsl import (
    MAX_NESTING,
    ArgumentSpec,
    Certain,
    Numeric,
    ParseError,
    PremiseSpec,
    QuiteSure,
    lower,
    parse,
    parse_formula,
)
from probarg.events import (
    And,
    Atom,
    ConditionalObject,
    Every,
    If,
    Interpretation,
    MaterialImp,
    NegIf,
    Not,
    Or,
    Plain,
    TOP,
)

CE = Interpretation.CONDITIONAL_EVENT
CFG = ClassificationConfig()


class TestParse:
    def test_paradox_task(self):
        specs = parse(
            "task Prdx { atoms: A, C premise: quite_sure(not(A)) conclusion: if(A, C) }"
        )
        assert len(specs) == 1
        spec = specs[0]
        assert spec.name == "Prdx"
        assert spec.atoms == ("A", "C")
        assert spec.premises == (PremiseSpec(Plain(Not(Atom("A"))), QuiteSure()),)
        assert spec.conclusion == If(Atom("A"), Atom("C"))

    def test_negated_conditional_conclusion(self):
        (spec,) = parse("task AT1 { atoms: A conclusion: not_if(not(A), A) }")
        assert spec.premises == ()
        assert spec.conclusion == NegIf(Not(Atom("A")), Atom("A"))

    def test_undeclared_atom(self):
        with pytest.raises(ParseError, match="undeclared atom B"):
            parse("task Bad { atoms: A conclusion: if(B, A) }")

    def test_numeric_premise(self):
        (spec,) = parse(
            "task T { atoms: A premise: P(A) in [1/4, 0.75] conclusion: A }"
        )
        (p,) = spec.premises
        assert p.strength == Numeric(F(1, 4), F(3, 4))

    def test_every_premise(self):
        (spec,) = parse(
            "task EI { atoms: S, P premise: certain(every(S, P)) conclusion: if(S, P) }"
        )
        (p,) = spec.premises
        assert p.statement == Every("S", "P")
        assert p.strength == Certain()

    def test_comments_and_whitespace(self):
        (spec,) = parse(
            """
            # leading comment
            task T {   # trailing comment
              atoms: A
              conclusion: not(A)   # another
            }
            """
        )
        assert spec.conclusion == Plain(Not(Atom("A")))

    def test_duplicate_task_name(self):
        text = "task T { atoms: A conclusion: A } task T { atoms: A conclusion: A }"
        with pytest.raises(ParseError, match="duplicate task name"):
            parse(text)

    def test_multiple_tasks(self):
        specs = parse(
            "task T1 { atoms: A conclusion: A } task T2 { atoms: A conclusion: not(A) }"
        )
        assert [s.name for s in specs] == ["T1", "T2"]

    def test_every_conclusion_rejected_at_every(self):
        """every(S, P) is a premise form: as a conclusion it is a
        ParseError at the every token, not an error when it is lowered."""
        with pytest.raises(ParseError, match="premise form, not a conclusion") as exc:
            parse("task T {\n  atoms: A, C\n  conclusion: every(A, C)\n}")
        assert (exc.value.line, exc.value.col) == (3, 15)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("task T {\n  atoms: A\n  conclusion: @\n}")
        assert exc.value.line == 3
        assert exc.value.col == 15


MALFORMED = [
    "",  # empty input
    "task",  # truncated header
    "task T atoms: A conclusion: A }",  # missing opening brace
    "task T { conclusion: A }",  # missing atoms
    "task T { atoms: conclusion: A }",  # empty atom list
    "task T { atoms: A, A conclusion: A }",  # duplicate atom
    "task T { atoms: A }",  # missing conclusion
    "task T { atoms: A conclusion: }",  # empty conclusion
    "task T { atoms: A conclusion: A",  # missing closing brace
    "task T { atoms: A conclusion: B }",  # undeclared atom
    "task T { atoms: A premise: sure(A) conclusion: A }",  # unknown strength
    "task T { atoms: A premise: quite_sure(A conclusion: A }",  # unbalanced paren
    "task T { atoms: A premise: P(A) in [0.5] conclusion: A }",  # one bound
    "task T { atoms: A premise: P(A) in [0.6, 0.4] conclusion: A }",  # inverted interval
    "task T { atoms: A premise: P(A) in [0, 2] conclusion: A }",  # out of range
    "task T { atoms: A premise: P(A) [0, 1] conclusion: A }",  # missing 'in'
    "task T { atoms: A conclusion: and(A) }",  # arity error
    "task T { atoms: A conclusion: if(A A) }",  # missing comma
    "task T { atoms: A premise: certain(every(A, B)) conclusion: A }",  # undeclared predicate
    "task T { atoms: A conclusion: A } trailing",  # junk after last task
    "task T { atoms: A premise: P(A) in [1/0, 1] conclusion: A }",  # zero denominator
    "task T { atoms: A, not conclusion: A }",  # connective as atom name
    "task T { atoms: if conclusion: if }",  # statement keyword as atom name
    "task T { atoms: A conclusion: "  # nested too deep
    + "not(" * (MAX_NESTING + 1) + "A" + ")" * (MAX_NESTING + 1) + " }",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_rejected_with_position(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line >= 1
    assert exc.value.col >= 1


class TestParseFormula:
    def test_every_identifier_is_an_atom(self):
        text = "implies(not(task), and(B, C_1))"
        (spec,) = parse(f"task T {{ atoms: task, B, C_1 conclusion: {text} }}")
        assert parse_formula(text) == spec.conclusion.formula

    @pytest.mark.parametrize("text", ["A B", "not(A))", "and(A, B", "A $", ""])
    def test_malformed_rejected_with_position(self, text):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert exc.value.line == 1
        assert exc.value.col >= 1


CORPUS_TEXTS = {
    "AT1": "task AT1 { atoms: A conclusion: not_if(not(A), A) }",
    "AT2": "task AT2 { atoms: A conclusion: not_if(A, not(A)) }",
    "NR": "task NR { atoms: A conclusion: not_if(A, A) }",
    "EIn": "task EIn { atoms: S, P premise: quite_sure(every(S, P)) conclusion: if(S, not(P)) }",
    "EI": "task EI { atoms: S, P premise: quite_sure(every(S, P)) conclusion: if(S, P) }",
    "MP": "task MP { atoms: A, C premise: quite_sure(A) premise: quite_sure(if(A, C)) conclusion: C }",
    "NMP": "task NMP { atoms: A, C premise: quite_sure(A) premise: quite_sure(if(A, C)) conclusion: not(C) }",
    "Prdx": "task Prdx { atoms: A, C premise: quite_sure(not(A)) conclusion: if(A, C) }",
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
    def test_corpus_round_trips(self, name):
        (spec,) = parse(CORPUS_TEXTS[name])
        (reparsed,) = parse(format_spec(spec))
        assert reparsed == spec

    def test_numeric_round_trips(self):
        (spec,) = parse(
            "task T { atoms: A, C premise: P(if(A, C)) in [1/3, 9/10] "
            "premise: certain(or(A, C)) conclusion: implies(A, C) }"
        )
        (reparsed,) = parse(format_spec(spec))
        assert reparsed == spec


IDENT = st.builds(str.__add__, st.sampled_from("AbZ_"), st.text("a1Z_9", max_size=3))
# Keywords that open a formula or statement cannot name an atom; every
# other identifier can, words of the task syntax included.
ATOMS = ("A", "B_2", "c", "task", "premise", "P", "in", "top")
FORMULA = st.recursive(
    st.sampled_from(ATOMS).map(Atom),
    lambda sub: st.one_of(
        sub.map(Not),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(MaterialImp, sub, sub),
    ),
    max_leaves=6,
)
# A conclusion is any statement but every(S, P), which only a premise takes.
CONCLUSION = st.one_of(
    st.builds(Plain, FORMULA),
    st.builds(If, FORMULA, FORMULA),
    st.builds(NegIf, FORMULA, FORMULA),
)
STATEMENT = st.one_of(
    CONCLUSION,
    st.builds(Every, st.sampled_from(ATOMS), st.sampled_from(ATOMS)),
)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=1000)
STRENGTH = st.one_of(
    st.just(QuiteSure()),
    st.just(Certain()),
    st.lists(UNIT, min_size=2, max_size=2).map(lambda b: Numeric(min(b), max(b))),
)
SPEC = st.builds(
    ArgumentSpec,
    IDENT,
    st.permutations(ATOMS).map(tuple),
    st.lists(st.builds(PremiseSpec, STATEMENT, STRENGTH), max_size=3).map(tuple),
    CONCLUSION,
)


@settings(max_examples=300, deadline=None)
@given(SPEC)
def test_format_spec_round_trips(spec):
    assert parse(format_spec(spec)) == [spec]


# Replacements for a number, a word and a mark of valid text, among them a
# zero denominator and keywords where an atom is declared.
PIECES = (
    ("0", "1", "2", "1/2", "0.5", "1/0", "0/0"),
    ("task", "T", "atoms", "premise", "conclusion", "quite_sure", "certain", "P",
     "in", "if", "not_if", "every", "not", "and", "or", "implies", "A"),
    ("{", "}", ":", ",", "[", "]", "(", ")", "#", "@", "\n", ""),
)


@st.composite
def fuzz_texts(draw):
    """Valid task text with one or two numbers, words or marks replaced, or
    any text at all. The kind to replace is drawn first, so the few numbers
    of a text are hit as often as its many words."""
    if draw(st.booleans()):
        return draw(st.text(max_size=60))
    tokens = re.findall(r"(\d[\d./]*)|(\w+)|(\S)", format_spec(draw(SPEC)))
    tokens = [next((kind, t) for kind, t in enumerate(groups) if t) for groups in tokens]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(sorted({kind for kind, _ in tokens})))
        i = draw(st.sampled_from([i for i, (k, _) in enumerate(tokens) if k == kind]))
        tokens[i] = kind, draw(st.sampled_from(PIECES[kind]))
    return " ".join(t for _, t in tokens)


@settings(max_examples=300, deadline=None)
@given(fuzz_texts())
def test_parse_raises_only_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


class TestLower:
    def test_paradox_lowering(self):
        (spec,) = parse(CORPUS_TEXTS["Prdx"])
        assessment, query = lower(spec, CE, CFG)
        (e,) = assessment.entries
        assert e.obj == ConditionalObject(Not(Atom("A")), TOP)
        assert (e.lo, e.hi) == (F(9, 10), F(1))
        assert query == ConditionalObject(Atom("C"), Atom("A"))

    def test_mp_lowering(self):
        (spec,) = parse(CORPUS_TEXTS["MP"])
        assessment, query = lower(spec, CE, CFG)
        objs = [e.obj for e in assessment.entries]
        assert objs == [
            ConditionalObject(Atom("A"), TOP),
            ConditionalObject(Atom("C"), Atom("A")),
        ]
        assert all((e.lo, e.hi) == (F(9, 10), F(1)) for e in assessment.entries)
        assert query == ConditionalObject(Atom("C"), TOP)

    def test_every_lowers_to_conditional_for_all_interpretations(self):
        (spec,) = parse(CORPUS_TEXTS["EI"])
        for interp in Interpretation:
            assessment, query = lower(spec, interp, CFG)
            (e,) = assessment.entries
            assert e.obj == ConditionalObject(Atom("P"), Atom("S"))

    def test_certain_is_point_one(self):
        (spec,) = parse("task T { atoms: A premise: certain(A) conclusion: A }")
        assessment, _ = lower(spec, CE, CFG)
        (e,) = assessment.entries
        assert (e.lo, e.hi) == (1, 1)

    def test_theta_respected(self):
        (spec,) = parse(CORPUS_TEXTS["Prdx"])
        cfg = ClassificationConfig(theta=F(4, 5))
        assessment, _ = lower(spec, CE, cfg)
        assert assessment.entries[0].lo == F(4, 5)

    def test_wide_narrow_differ_only_on_negif(self):
        for name, text in CORPUS_TEXTS.items():
            (spec,) = parse(text)
            wide = lower(spec, Interpretation.MATERIAL_WIDE, CFG)
            narrow = lower(spec, Interpretation.MATERIAL_NARROW, CFG)
            has_negif = isinstance(spec.conclusion, NegIf) or any(
                isinstance(p.statement, NegIf) for p in spec.premises
            )
            if not has_negif:
                assert wide == narrow, name
            else:
                assert wide != narrow, name
