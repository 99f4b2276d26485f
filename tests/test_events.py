import pytest
from hypothesis import given, strategies as st

from probarg.events import (
    And,
    Atom,
    BOTTOM,
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
    atoms_of,
    constituents,
    eval_classical,
    expand,
    truth_table,
)

A = Atom("A")
C = Atom("C")


class TestConstituents:
    def test_single_atom(self):
        assert constituents(["A"]) == [{"A": False}, {"A": True}]

    def test_two_atoms_order(self):
        worlds = constituents(["A", "C"])
        assert [(v["A"], v["C"]) for v in worlds] == [
            (False, False),
            (False, True),
            (True, False),
            (True, True),
        ]

    def test_three_atoms_count(self):
        assert len(constituents(["A", "B", "C"])) == 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no atoms"):
            constituents([])

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            constituents([f"x{i}" for i in range(17)])

    def test_deterministic(self):
        assert constituents(["A", "C"]) == constituents(["A", "C"])


class TestEvalClassical:
    # the four material-conditional truth table rows
    @pytest.mark.parametrize(
        "a,c,expected",
        [(True, True, True), (True, False, False), (False, True, True), (False, False, True)],
    )
    def test_material(self, a, c, expected):
        assert eval_classical(MaterialImp(A, C), {"A": a, "C": c}) is expected

    @pytest.mark.parametrize(
        "a,c,expected",
        [(True, True, True), (True, False, False), (False, True, False), (False, False, False)],
    )
    def test_conjunction(self, a, c, expected):
        assert eval_classical(And(A, C), {"A": a, "C": c}) is expected

    def test_connectives(self):
        v = {"A": True, "C": False}
        assert eval_classical(Or(A, C), v)
        assert not eval_classical(Not(A), v)
        assert eval_classical(TOP, v)
        assert not eval_classical(BOTTOM, v)


class TestConditionalObject:
    def test_bottom_antecedent_rejected(self):
        with pytest.raises(ValueError, match="unsatisfiable"):
            ConditionalObject(C, And(A, Not(A)))

    def test_bottom_literal_rejected(self):
        with pytest.raises(ValueError):
            ConditionalObject(C, BOTTOM)

    def test_top_antecedent_ok(self):
        assert ConditionalObject(C).antecedent == TOP

    def test_top_antecedent_builds_no_truth_table(self, monkeypatch):
        from probarg import events

        def refuse(*args):
            raise AssertionError("a Top antecedent was tabulated")

        monkeypatch.setattr(events, "is_satisfiable", refuse)
        assert ConditionalObject(C).antecedent == TOP
        assert ConditionalObject(C, TOP).antecedent == TOP
        with pytest.raises(AssertionError):
            ConditionalObject(C, A)


class TestExpand:
    def test_if_conditional_event(self):
        assert expand(If(A, C), Interpretation.CONDITIONAL_EVENT) == ConditionalObject(C, A)

    @pytest.mark.parametrize(
        "interp", [Interpretation.MATERIAL_WIDE, Interpretation.MATERIAL_NARROW]
    )
    def test_if_material_scopes_agree(self, interp):
        assert expand(If(A, C), interp) == ConditionalObject(MaterialImp(A, C), TOP)

    def test_if_conjunction(self):
        assert expand(If(A, C), Interpretation.CONJUNCTION) == ConditionalObject(And(A, C), TOP)

    def test_negif_conditional_event_negates_consequent(self):
        # negated Aristotle's-thesis antecedent: not-if(not A, A) becomes (not A | not A)
        obj = expand(NegIf(Not(A), A), Interpretation.CONDITIONAL_EVENT)
        assert obj == ConditionalObject(Not(A), Not(A))

    def test_negif_material_wide(self):
        obj = expand(NegIf(Not(A), A), Interpretation.MATERIAL_WIDE)
        assert obj.antecedent == TOP
        assert truth_table(obj.consequent, ["A"]) == truth_table(Not(A), ["A"])

    def test_negif_material_narrow(self):
        obj = expand(NegIf(A, C), Interpretation.MATERIAL_NARROW)
        assert obj == ConditionalObject(MaterialImp(A, Not(C)), TOP)

    def test_negif_conjunction_wide_scope(self):
        obj = expand(NegIf(A, C), Interpretation.CONJUNCTION)
        assert obj == ConditionalObject(Not(And(A, C)), TOP)

    def test_plain_passthrough(self):
        assert expand(Plain(Not(A)), Interpretation.CONJUNCTION) == ConditionalObject(Not(A), TOP)

    def test_every_rejected(self):
        with pytest.raises(ValueError, match="lower Every"):
            expand(Every("S", "P"), Interpretation.CONDITIONAL_EVENT)

    def test_total_over_all_cases(self):
        for stmt in (If(A, C), NegIf(A, C)):
            for interp in Interpretation:
                assert isinstance(expand(stmt, interp), ConditionalObject)

    def test_double_negation_scope(self):
        # negating the consequent up front and narrow-scope negation coincide
        narrow_neg = expand(NegIf(A, C), Interpretation.MATERIAL_NARROW)
        want = truth_table(narrow_neg.consequent, ["A", "C"])
        for interp in (Interpretation.MATERIAL_NARROW, Interpretation.MATERIAL_WIDE):
            direct = expand(If(A, Not(C)), interp)
            assert truth_table(direct.consequent, ["A", "C"]) == want


# random formula trees over two atoms
def _formulas(depth=3):
    leaves = st.sampled_from([A, C, TOP, BOTTOM])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda t: And(*t)),
            st.tuples(inner, inner).map(lambda t: Or(*t)),
            st.tuples(inner, inner).map(lambda t: MaterialImp(*t)),
        ),
        max_leaves=8,
    )


@given(_formulas())
def test_atoms_of_covers_evaluation(f):
    # evaluating over exactly the formula's atoms never raises
    names = sorted(atoms_of(f))
    worlds = constituents(names) if names else [{}]
    for v in worlds:
        eval_classical(f, v)


# --- truth tables ---------------------------------------------------------

NAMES = ("A", "B", "C", "D", "E")


@st.composite
def _named_formulas(draw):
    """(formula, names): 0-5 declared names in any order, and a formula
    over some of them with every connective, TOP and BOTTOM."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(0, 5))]
    leaves = st.sampled_from([Atom(x) for x in names] + [TOP, BOTTOM])
    f = draw(
        st.recursive(
            leaves,
            lambda inner: st.one_of(
                inner.map(Not),
                st.tuples(inner, inner).map(lambda t: And(*t)),
                st.tuples(inner, inner).map(lambda t: Or(*t)),
                st.tuples(inner, inner).map(lambda t: MaterialImp(*t)),
            ),
            max_leaves=10,
        )
    )
    return f, list(names)


class TestTruthTable:
    @given(_named_formulas())
    def test_matches_eval_classical_world_by_world(self, case):
        f, names = case
        worlds = constituents(names) if names else [{}]
        table = truth_table(f, names)
        assert 0 <= table < 1 << len(worlds)
        for j, v in enumerate(worlds):
            assert table >> j & 1 == eval_classical(f, v)

    def test_atoms_are_block_patterns(self):
        # worlds FF, FT, TF, TT: A holds on 2 and 3, C on 1 and 3
        assert truth_table(A, ["A", "C"]) == 0b1100
        assert truth_table(C, ["A", "C"]) == 0b1010
        assert truth_table(C, ["A", "B", "C"]) == 0b10101010
        assert truth_table(A, ["A", "B", "C"]) == 0b11110000

    def test_atom_tables_equal_the_division_formula(self):
        """Every atom's table at n = 1..16 is the block pattern as a product:
        one run (2^block - 1) << block times the all-ones table divided by
        2^(2*block) - 1, which puts a 1 at the start of every run."""
        for n in range(1, 17):
            names = [f"x{i}" for i in range(n)]
            full = (1 << (1 << n)) - 1
            for i, name in enumerate(names):
                block = 1 << (n - 1 - i)
                by_division = (((1 << block) - 1) << block) * (full // ((1 << 2 * block) - 1))
                assert truth_table(Atom(name), names) == by_division, (n, name)

    def test_subclasses_take_their_base_classes_operation(self):
        """The tabulator picks a formula's operation by isinstance, so an
        instance of a subclass gets its base's table, and anything else is
        refused."""

        class Both(And):
            __slots__ = ()

        class Named(Atom):
            __slots__ = ()

        names = ["A", "C"]
        assert truth_table(Both(A, Not(C)), names) == truth_table(And(A, Not(C)), names) == 0b0100
        assert truth_table(Or(Named("C"), Both(A, C)), names) == truth_table(C, names)
        with pytest.raises(TypeError, match="not a formula"):
            truth_table(And(A, "C"), names)
        with pytest.raises(KeyError):
            truth_table(Atom("B"), names)

    def test_constants(self):
        assert truth_table(TOP, ["A", "C"]) == 0b1111
        assert truth_table(BOTTOM, ["A", "C"]) == 0
        assert (truth_table(TOP, []), truth_table(BOTTOM, [])) == (1, 0)

    @pytest.mark.parametrize(
        "names, message",
        [
            ([f"x{i}" for i in range(17)], "at most 16 atoms supported, got 17"),
            (["A", "A"], "duplicate atom names"),
        ],
    )
    def test_atom_set_checked_as_constituents_checks_it(self, names, message):
        with pytest.raises(ValueError, match=message):
            truth_table(A if "A" in names else TOP, names)
        with pytest.raises(ValueError, match=message):
            constituents(names)

    def test_unsatisfiable_antecedent_rejected(self):
        with pytest.raises(ValueError, match=r"^antecedent is unsatisfiable: and\(A, not\(A\)\)$"):
            ConditionalObject(C, And(A, Not(A)))
        with pytest.raises(ValueError, match="^antecedent is unsatisfiable: bottom$"):
            ConditionalObject(C, BOTTOM)
