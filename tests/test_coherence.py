from fractions import Fraction as F
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from probarg import coherence
from probarg.coherence import (
    Assessment,
    AssessmentEntry,
    Bounds,
    ClassificationConfig,
    Coherent,
    Incoherent,
    IncoherentPremises,
    ResponseCategory,
    check_coherence,
    classify,
    propagate,
    structural_bounds,
)
from probarg.corpus import builtin_tasks
from probarg.dsl import Numeric, lower, parse
from probarg.events import (
    TOP,
    And,
    Atom,
    ConditionalObject,
    Interpretation,
    Not,
    Or,
    constituents,
    eval_classical,
)

from oracles import (
    assessment_polytope_rows,
    conditional_value,
    enumerate_vertices,
    vertex_bounds,
    witness_satisfies,
)

A = Atom("A")
C = Atom("C")


def entry(obj, lo, hi=None):
    hi = lo if hi is None else hi
    return AssessmentEntry(obj, F(lo), F(hi))


class TestAssessment:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            AssessmentEntry(ConditionalObject(A), F(3, 4), F(1, 2))
        with pytest.raises(ValueError):
            AssessmentEntry(ConditionalObject(A), F(-1, 2), F(1, 2))

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            AssessmentEntry(ConditionalObject(A), 0.5, 0.5)

    @pytest.mark.parametrize(
        "make, message",
        [
            (Numeric, "invalid premise interval"),
            (lambda lo, hi: AssessmentEntry(ConditionalObject(A), lo, hi), "invalid probability interval"),
            (Bounds, "invalid bounds"),
        ],
    )
    def test_one_interval_check(self, make, message):
        # One check serves all three; each keeps its own message.
        for lo, hi in [(F(3, 4), F(1, 2)), (F(-1, 2), F(1, 2)), (0, F(3, 2))]:
            with pytest.raises(ValueError, match=rf"^{message} \[{lo}, {hi}\]$"):
                make(lo, hi)
        got = make("1/4", 1)
        assert (got.lo, got.hi) == (F(1, 4), 1)
        assert type(got.lo) is type(got.hi) is F


class TestCheckCoherence:
    def test_additivity_violation(self):
        a = Assessment((entry(ConditionalObject(A), F(3, 5)), entry(ConditionalObject(Not(A)), F(1, 2))))
        verdict = check_coherence(a, ["A"])
        assert isinstance(verdict, Incoherent)
        assert verdict.level == 0
        assert "unsolvable" in verdict.description

    def test_zero_layer_rescue(self):
        # p(C|A)=1 with p(A and C)=0 pushes the conditional to a deeper
        # layer where it is satisfiable: coherent
        a = Assessment((entry(ConditionalObject(C, A), 1), entry(ConditionalObject(And(A, C)), 0)))
        verdict = check_coherence(a, ["A", "C"])
        assert isinstance(verdict, Coherent)

    def test_self_defeating_conditional(self):
        a = Assessment((entry(ConditionalObject(A, Not(A)), 1),))
        verdict = check_coherence(a, ["A"])
        assert isinstance(verdict, Incoherent)
        assert verdict.level == 1

    def test_empty_assessment_coherent(self):
        assert isinstance(check_coherence(Assessment(), ["A"]), Coherent)

    def test_witness_revalidates(self):
        a = Assessment(
            (
                entry(ConditionalObject(A), F(2, 5), F(3, 5)),
                entry(ConditionalObject(C, A), F(1, 2)),
            )
        )
        verdict = check_coherence(a, ["A", "C"])
        assert isinstance(verdict, Coherent)
        assert witness_satisfies(a.entries, constituents(["A", "C"]), verdict.witness)

    def test_undeclared_atom_rejected(self):
        a = Assessment((entry(ConditionalObject(C), F(1, 2)),))
        with pytest.raises(ValueError, match="undeclared"):
            check_coherence(a, ["A"])

    def test_deterministic_witness(self):
        a = Assessment((entry(ConditionalObject(A), F(1, 3), F(2, 3)),))
        v1 = check_coherence(a, ["A", "C"])
        v2 = check_coherence(a, ["A", "C"])
        assert v1 == v2


def _lowered_checks():
    """(name, assessment, atoms) for every built-in task and tests/data file
    x interpretation x theta in {9/10, 4/5, 7/10, 19/20, 1}."""
    specs = [t.spec for t in builtin_tasks()]
    for path in sorted((Path(__file__).parent / "data").glob("*.arg")):
        specs += parse(path.read_text())
    for spec in specs:
        for interp in Interpretation:
            for theta in (F(9, 10), F(4, 5), F(7, 10), F(19, 20), F(1)):
                a, _ = lower(spec, interp, ClassificationConfig(theta=theta))
                yield f"{spec.name} {interp.value} {theta}", a, spec.atoms


class TestWitnesses:
    def test_every_witness_satisfies_the_premises(self):
        """Each check_coherence witness, re-checked world by world against
        the raw level-0 constraints, with no solver."""
        coherent = 0
        for name, a, atoms in _lowered_checks():
            verdict = check_coherence(a, atoms)
            if isinstance(verdict, Coherent):
                coherent += 1
                assert witness_satisfies(a.entries, constituents(atoms), verdict.witness), name
        # 8 tasks and Prdx are coherent under every reading; Bad never is.
        assert coherent == 180


class TestStructuralBounds:
    def test_reflexive(self):
        b = structural_bounds(ConditionalObject(Not(A), Not(A)))
        assert (b.lo, b.hi) == (1, 1)

    def test_contradiction(self):
        b = structural_bounds(ConditionalObject(A, Not(A)))
        assert (b.lo, b.hi) == (0, 0)

    def test_independent_atoms(self):
        assert structural_bounds(ConditionalObject(C, A)) is None

    def test_entailment(self):
        b = structural_bounds(ConditionalObject(Or(A, C), A))
        assert (b.lo, b.hi) == (1, 1)


class TestPropagate:
    def test_paradox_non_informative(self):
        for x in (F(0), F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(1)):
            prem = Assessment((entry(ConditionalObject(Not(A)), x),))
            b = propagate(prem, ConditionalObject(C, A), ["A", "C"])
            assert (b.lo, b.hi) == (0, 1)

    def test_modus_ponens_formula(self):
        x, y = F(9, 10), F(9, 10)
        prem = Assessment((entry(ConditionalObject(A), x), entry(ConditionalObject(C, A), y)))
        b = propagate(prem, ConditionalObject(C), ["A", "C"])
        assert (b.lo, b.hi) == (x * y, x * y + 1 - x)

    def test_structural_short_circuit(self):
        b = propagate(Assessment(), ConditionalObject(Not(A), Not(A)), ["A"])
        assert (b.lo, b.hi) == (1, 1)

    def test_incoherent_premises_raise_with_certificate(self):
        prem = Assessment((entry(ConditionalObject(A), F(3, 5)), entry(ConditionalObject(Not(A)), F(3, 5))))
        with pytest.raises(IncoherentPremises) as exc:
            propagate(prem, ConditionalObject(C), ["A", "C"])
        assert isinstance(exc.value.certificate, Incoherent)

    def test_degenerate_antecedent_falls_to_zero_layer(self):
        # premises force p(A) = 0; nothing constrains C there, so [0, 1]
        prem = Assessment((entry(ConditionalObject(Not(A)), 1),))
        b = propagate(prem, ConditionalObject(C, A), ["A", "C"])
        assert (b.lo, b.hi) == (0, 1)

    def test_zero_layer_constraint_survives(self):
        # p(not A) = 1 and p(C|A) = 9/10: the conditional premise lives at
        # the zero layer and still pins the query there
        prem = Assessment(
            (entry(ConditionalObject(Not(A)), 1), entry(ConditionalObject(C, A), F(9, 10)))
        )
        b = propagate(prem, ConditionalObject(C, A), ["A", "C"])
        assert (b.lo, b.hi) == (F(9, 10), F(9, 10))

    def test_matches_vertex_enumeration(self):
        cases = [
            Assessment((entry(ConditionalObject(A), F(1, 2)),)),
            Assessment((entry(ConditionalObject(A), F(1, 3), F(2, 3)),)),
            Assessment(
                (
                    entry(ConditionalObject(A), F(3, 4)),
                    entry(ConditionalObject(C, A), F(2, 3)),
                )
            ),
            Assessment((entry(ConditionalObject(Or(A, C)), F(1, 2), F(4, 5)),)),
        ]
        worlds = constituents(["A", "C"])
        queries = [ConditionalObject(C), ConditionalObject(And(A, C)), ConditionalObject(C, A)]
        for prem in cases:
            for q in queries:
                got = propagate(prem, q, ["A", "C"])
                expected = vertex_bounds(prem.entries, worlds, q)
                if expected is None:
                    continue
                assert (got.lo, got.hi) == expected, (prem, q)

    def test_grid_oracle_agreement(self):
        # brute-force: denominator-40 mass grids, premises satisfied exactly
        prem = Assessment(
            (entry(ConditionalObject(A), F(3, 4)), entry(ConditionalObject(C, A), F(2, 3)))
        )
        q = ConditionalObject(C)
        got = propagate(prem, q, ["A", "C"])
        worlds = constituents(["A", "C"])
        values = []
        n = 40
        for i in range(n + 1):
            for j in range(n + 1 - i):
                for k in range(n + 1 - i - j):
                    lam = [F(i, n), F(j, n), F(k, n), F(n - i - j - k, n)]
                    pa = lam[2] + lam[3]
                    if pa != F(3, 4) or lam[3] != F(2, 3) * pa:
                        continue
                    values.append(lam[1] + lam[3])
        assert values
        assert abs(min(values) - got.lo) <= F(1, 100)
        assert abs(max(values) - got.hi) <= F(1, 100)


FORMULAS_AC = [A, C, Not(A), Not(C), And(A, C), Or(A, C), And(A, Not(C)), Or(Not(A), C)]
ANTECEDENTS_AC = [TOP, TOP, A, C, Not(A), Or(A, C)]
WIDEN = st.sampled_from([F(0), F(0), F(1, 10), F(1, 4), F(1)])


@st.composite
def two_atom_problems(draw):
    """A 2-atom assessment whose intervals contain the values of a random
    mass vector (so level 0 is solvable), and a query."""
    raw = draw(st.lists(st.integers(0, 6), min_size=4, max_size=4).filter(any))
    worlds = constituents(["A", "C"])
    lam = [F(x, sum(raw)) for x in raw]
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        obj = ConditionalObject(
            draw(st.sampled_from(FORMULAS_AC)), draw(st.sampled_from(ANTECEDENTS_AC))
        )
        value = conditional_value(obj, worlds, lam)
        if value is None:
            value = draw(st.sampled_from([F(0), F(1, 3), F(1)]))
        lo = max(F(0), value - draw(WIDEN))
        hi = min(F(1), value + draw(WIDEN))
        entries.append(AssessmentEntry(obj, lo, hi))
    query = ConditionalObject(
        draw(st.sampled_from(FORMULAS_AC)), draw(st.sampled_from(ANTECEDENTS_AC))
    )
    return Assessment(tuple(entries)), query


class TestVertexOracle:
    @settings(max_examples=150, deadline=None)
    @given(two_atom_problems())
    def test_propagate_matches_vertex_bounds(self, problem):
        # The oracle enumerates level-0 vertices. Where every vertex gives
        # the query's antecedent positive mass, the coherent interval is
        # exactly the range of the query over those vertices, whichever
        # vertex any solver visits.
        prem, q = problem
        worlds = constituents(["A", "C"])
        eqs, ineqs = assessment_polytope_rows(prem.entries, worlds)
        vertices = enumerate_vertices(len(worlds), eqs, ineqs)
        assume(all(conditional_value(q, worlds, x) is not None for x in vertices))
        assume(isinstance(check_coherence(prem, ["A", "C"]), Coherent))
        got = propagate(prem, q, ["A", "C"])
        assert (got.lo, got.hi) == vertex_bounds(prem.entries, worlds, q)


def chain(n, theta):
    """p(A0) >= theta, p(A_{i+1}|A_i) >= theta, and the query (A_{n-1}|A0)."""
    atoms = [f"A{i}" for i in range(n)]
    a = [Atom(x) for x in atoms]
    entries = [entry(ConditionalObject(a[0]), theta, 1)] + [
        entry(ConditionalObject(a[i + 1], a[i]), theta, 1) for i in range(n - 1)
    ]
    return Assessment(tuple(entries)), ConditionalObject(a[-1], a[0]), atoms


def _count_calls(monkeypatch):
    """Counts of simplex pivots and of coherence's solve_lp calls, live."""
    from probarg import coherence, linprog

    calls = {"pivot": 0, "solve": 0}
    pivot, solve = linprog._pivot, coherence.solve_lp

    def counted_pivot(*args):
        calls["pivot"] += 1
        pivot(*args)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(linprog, "_pivot", counted_pivot)
    monkeypatch.setattr(coherence, "solve_lp", counted_solve)
    return calls


class TestSolveCounts:
    """One n = 6 chain: the pivots and solves it takes, and one phase 1 on
    its level-0 system."""

    def test_pivots_and_solves(self, monkeypatch):
        from probarg import coherence, linprog

        calls = {"pivot": 0, "solve": 0}
        pivot, solve = linprog._pivot, coherence.solve_lp

        def counted_pivot(*args):
            calls["pivot"] += 1
            pivot(*args)

        def counted_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(linprog, "_pivot", counted_pivot)
        monkeypatch.setattr(coherence, "solve_lp", counted_solve)
        b = propagate(*chain(6, F(9, 10)))
        assert (b.lo, b.hi) == (F(497051, 900000), 1)
        assert calls == {"pivot": 8, "solve": 4}

    def test_corpus_grid_pivots_and_solves(self, monkeypatch):
        """Every corpus task x interpretation x THETA_GRID propagated: the
        pivots and solves the rational tableau's path takes. It took 400
        pivots in 472 solves while min m = 0 pinned the row m_q = 0 and a
        crash start probed only its vertex."""
        from probarg import coherence, linprog
        from probarg.corpus import THETA_GRID, builtin_tasks
        from probarg.dsl import lower
        from probarg.events import Interpretation

        calls = {"pivot": 0, "solve": 0}
        pivot, solve = linprog._pivot, coherence.solve_lp

        def counted_pivot(*args):
            calls["pivot"] += 1
            pivot(*args)

        def counted_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(linprog, "_pivot", counted_pivot)
        monkeypatch.setattr(coherence, "solve_lp", counted_solve)
        for task in builtin_tasks():
            for interp in Interpretation:
                for theta in THETA_GRID:
                    a, q = lower(task.spec, interp, ClassificationConfig(theta=theta))
                    propagate(a, q, task.spec.atoms)
        assert calls == {"pivot": 320, "solve": 440}

    def test_chain8_pivots_and_solves(self, monkeypatch):
        """A point further along the scale curve: n = 8 took 54 pivots and
        5 solves before the Charnes-Cooper program started from the max-m
        optimum, and 43 pivots before the one-pivot crash start."""
        calls = _count_calls(monkeypatch)
        b = propagate(*chain(8, F(9, 10)))
        assert (b.lo, b.hi) == (F(38361131, 90000000), 1)
        assert calls == {"pivot": 10, "solve": 4}

    def test_chain10_pivots_and_solves(self, monkeypatch):
        """n = 10 took 242 pivots before the one-pivot crash start; the
        chain now takes one pivot more per added atom."""
        calls = _count_calls(monkeypatch)
        b = propagate(*chain(10, F(9, 10)))
        assert (b.lo, b.hi) == (F(2917251611, 9000000000), 1)
        assert calls == {"pivot": 12, "solve": 4}

    def test_chain_level0_runs_no_phase1(self, monkeypatch):
        """The all-true world satisfies every premise row of the chain, so
        its level-0 region starts in one pivot, with no phase-1 simplex.
        The vertex has one mass per column; world_masses puts it on the
        worlds."""
        from probarg import linprog

        a, _, atoms = chain(6, F(9, 10))
        layer, region = coherence._level0(a, atoms)
        calls = _count_calls(monkeypatch)
        simplex, runs = linprog._simplex, []

        def counted_simplex(*args):
            runs.append(args)
            return simplex(*args)

        monkeypatch.setattr(linprog, "_simplex", counted_simplex)
        x = region.vertex()
        assert (calls["pivot"], runs) == (1, [])
        assert layer.world_masses(x) == [0] * 63 + [1]

    def test_incoherent_layer_has_no_vertex(self):
        """No column satisfies every row of an incoherent layer, so it falls
        back to phase 1, which still finds the rows infeasible."""
        a = Assessment(
            (entry(ConditionalObject(A), F(3, 5)), entry(ConditionalObject(Not(A)), F(1, 2)))
        )
        assert coherence._level0(a, ["A"])[1].vertex() is None
        assert check_coherence(a, ["A"]).level == 0

    def test_level0_phase1_runs_once(self, monkeypatch):
        from probarg import coherence, linprog

        started = []

        class CountedRegion(linprog.Region):
            @cached_property
            def _start(self):
                started.append(self._rows)
                return linprog.Region._start.func(self)

        monkeypatch.setattr(coherence, "Region", CountedRegion)
        a, q, atoms = chain(6, F(9, 10))
        propagate(a, q, atoms)
        # propagate's level-0 columns tell the query's tables apart too
        _, level0 = coherence._level0(a, atoms, q)
        assert started.count(level0._rows) == 1


class TestPointsOnlyForWitnesses:
    """Solves report their value and an int support; a point in Fractions
    (linprog._point) is built only for a witness that leaves the package."""

    @staticmethod
    def _points(monkeypatch):
        from probarg import linprog

        calls, point = [], linprog._point

        def counted(*args):
            calls.append(args)
            return point(*args)

        monkeypatch.setattr(linprog, "_point", counted)
        return calls

    def test_propagate_builds_no_point(self, monkeypatch):
        from probarg.corpus import THETA_GRID

        calls = self._points(monkeypatch)
        b = propagate(*chain(6, F(9, 10)))
        assert (b.lo, b.hi) == (F(497051, 900000), 1)
        for task in builtin_tasks():
            for interp in Interpretation:
                for theta in THETA_GRID:
                    a, q = lower(task.spec, interp, ClassificationConfig(theta=theta))
                    propagate(a, q, task.spec.atoms)
        assert calls == []

    def test_coherent_check_builds_one_point(self, monkeypatch):
        calls = self._points(monkeypatch)
        a, _, atoms = chain(6, F(9, 10))
        verdict = check_coherence(a, atoms)
        assert isinstance(verdict, Coherent) and verdict.witness[-1] == 1
        assert len(calls) == 1


class TestAtomSet:
    """check_coherence and propagate reject a bad atom set before any
    solving, with the messages constituents() gives it."""

    @pytest.mark.parametrize(
        "atoms, message",
        [
            ([f"X{i}" for i in range(17)], "at most 16 atoms supported, got 17"),
            (["A", "C", "A"], "duplicate atom names"),
            ([], "no atoms declared"),
        ],
        ids=["17 atoms", "duplicates", "none"],
    )
    def test_rejected_before_solving(self, monkeypatch, atoms, message):
        with pytest.raises(ValueError) as by_constituents:
            constituents(atoms)
        assert str(by_constituents.value) == message

        def refuse(*args, **kwargs):
            raise AssertionError("a layer was solved before the atom set was checked")

        monkeypatch.setattr(coherence, "Region", refuse)
        monkeypatch.setattr(coherence, "solve_lp", refuse)
        obj = ConditionalObject(Atom(atoms[0])) if atoms else ConditionalObject(TOP)
        a = Assessment((entry(obj, F(9, 10), 1),))
        with pytest.raises(ValueError) as checked:
            check_coherence(a, atoms)
        with pytest.raises(ValueError) as propagated:
            propagate(a, obj, atoms)
        assert str(checked.value) == str(propagated.value) == message

    @pytest.mark.parametrize(
        "atoms, premise, message",
        [
            ([], A, "undeclared atoms in assessment: ['A']"),
            ([f"X{i}" for i in range(17)], C, "undeclared atoms in assessment: ['C']"),
            (["A", "A"], C, "undeclared atoms in assessment: ['C']"),
            (["A"], And(C, Atom("B")), "undeclared atoms in assessment: ['B', 'C']"),
            (["C"], Or(A, Not(C)), "undeclared atoms in assessment: ['A']"),
        ],
        ids=["none declared", "17 atoms", "duplicates", "two", "in a compound"],
    )
    def test_undeclared_assessment_atoms_named_first(self, atoms, premise, message):
        """An undeclared atom of the assessment is named before a fault of
        the atom set and before one of the query."""
        a = Assessment((entry(ConditionalObject(premise), F(9, 10), 1),))
        q = ConditionalObject(Atom("Q"))
        for run in (lambda: check_coherence(a, atoms), lambda: propagate(a, q, atoms)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == message

    def test_undeclared_query_atoms_named_after_the_premises(self):
        """A query's undeclared atoms are named, sorted, once the premises
        are found coherent; incoherent premises raise first."""
        q = ConditionalObject(And(Atom("Z"), Atom("B")), A)
        coherent = Assessment((entry(ConditionalObject(A), F(9, 10), 1),))
        assert isinstance(check_coherence(coherent, ["A"]), Coherent)
        with pytest.raises(ValueError) as err:
            propagate(coherent, q, ["A"])
        assert str(err.value) == "undeclared atoms in query: ['B', 'Z']"
        incoherent = Assessment(
            (entry(ConditionalObject(A), F(3, 5)), entry(ConditionalObject(Not(A)), F(1, 2)))
        )
        with pytest.raises(IncoherentPremises):
            propagate(incoherent, q, ["A"])

    def test_undeclared_query_atoms_rejected_on_the_structural_path(self):
        # (B | B) is settled without a solve, (B | A) is not; both name B.
        A, B = Atom("A"), Atom("B")
        a = Assessment((entry(ConditionalObject(A), F(9, 10), 1),))
        messages = []
        for q in (ConditionalObject(B, B), ConditionalObject(B, A)):
            with pytest.raises(ValueError) as err:
                propagate(a, q, ("A",))
            messages.append(str(err.value))
        assert messages == ["undeclared atoms in query: ['B']"] * 2


class TestNonOptimalSolves:
    """A layer solve that does not come back optimal raises RuntimeError,
    whichever solve it is."""

    @pytest.mark.parametrize("maximize", [True, False])
    def test_mass_solves(self, monkeypatch, maximize):
        from probarg import coherence
        from probarg.linprog import LPResult

        a, q, atoms = chain(3, F(9, 10))
        # one entry per column of the level-0 layer, read at its first world
        layer, _ = coherence._level0(a, atoms, q)
        worlds = constituents(atoms)
        m_row = [
            int(eval_classical(q.antecedent, worlds[(c & -c).bit_length() - 1]))
            for c in layer.classes
        ]
        solve, broken = coherence.solve_lp, maximize

        def failing(objective, rows, maximize=True):
            if list(objective) == m_row and maximize == broken:
                return LPResult("unbounded")
            return solve(objective, rows, maximize)

        monkeypatch.setattr(coherence, "solve_lp", failing)
        with pytest.raises(RuntimeError, match="layer system unexpectedly unbounded"):
            propagate(a, q, atoms)


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=4, max_size=4).filter(lambda m: sum(m) > 0))
    def test_adding_entry_never_widens(self, raw):
        # derive a guaranteed-coherent assessment from a random mass vector
        total = sum(raw)
        lam = [F(x, total) for x in raw]
        worlds = constituents(["A", "C"])
        pa = lam[2] + lam[3]
        pc = lam[1] + lam[3]
        base = Assessment((entry(ConditionalObject(A), pa),))
        extended = base.extended(ConditionalObject(C), pc, pc)
        q = ConditionalObject(Or(A, C))
        before = propagate(base, q, ["A", "C"])
        after = propagate(extended, q, ["A", "C"])
        assert before.lo <= after.lo <= after.hi <= before.hi


class TestClassify:
    def test_non_informative(self):
        assert classify(Bounds(F(0), F(1))) is ResponseCategory.NON_INFORMATIVE

    def test_holds_examples(self):
        assert classify(Bounds(F(81, 100), F(1))) is ResponseCategory.HOLDS
        assert classify(Bounds(F(1), F(1))) is ResponseCategory.HOLDS

    def test_does_not_hold(self):
        assert classify(Bounds(F(0), F(1, 10))) is ResponseCategory.DOES_NOT_HOLD

    def test_indeterminate(self):
        assert classify(Bounds(F(1, 4), F(3, 4))) is ResponseCategory.INDETERMINATE

    def test_thresholds_respected(self):
        cfg = ClassificationConfig(theta=F(9, 10), tau_high=F(9, 10), tau_low=F(1, 10))
        assert classify(Bounds(F(4, 5), F(9, 10)), cfg) is ResponseCategory.INDETERMINATE
        assert classify(Bounds(F(19, 20), F(1)), cfg) is ResponseCategory.HOLDS
        assert classify(Bounds(F(0), F(1, 20)), cfg) is ResponseCategory.DOES_NOT_HOLD

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClassificationConfig(theta=F(1, 2))
        with pytest.raises(ValueError):
            ClassificationConfig(tau_high=F(1, 4), tau_low=F(1, 2))
