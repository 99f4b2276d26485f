from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bland_reference
import solver_counts
from int_rows import int_objective, int_row, int_rows
from general_rows import EQ, GE, LE, rows_region, solve_rows
from probarg.linprog import DEGENERATE_RUN, LPResult, Region, solve_lp


def positive(x):
    """The entries of x that are positive, as an int mask: bit j for x_j."""
    return sum(1 << j for j, v in enumerate(x) if v > 0)


def sign(v):
    return (v > 0) - (v < 0)


def reads_agree(objective, res):
    """An optimal result's value, numerator and support(), read off its
    tableau in ints, are those its solution in Fractions gives: the value
    and its sign."""
    x = res.solution
    value = sum(F(c) * v for c, v in zip(objective, x))
    return (
        res.value == value
        and sign(res.numerator) == sign(value)
        and res.support() == positive(x)
    )


def test_simple_max():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    res = solve_rows([1, 1], [([1, 2], LE, 4), ([3, 1], LE, 6)])
    assert res.status == "optimal"
    assert res.value == F(14, 5)
    assert res.solution == [F(8, 5), F(6, 5)]
    assert reads_agree([1, 1], res)


def test_min_with_equality():
    # min x + y s.t. x + y + z == 1, x >= 1/3
    res = solve_rows(
        [1, 1, 0],
        int_rows([([1, 1, 1], EQ, 1), ([1, 0, 0], GE, F(1, 3))]),
        maximize=False,
    )
    assert res.status == "optimal"
    assert res.value == F(1, 3)
    assert reads_agree([1, 1, 0], res)


def test_infeasible():
    res = solve_rows([1], [([1], GE, 2), ([1], LE, 1)])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_rows([1], [([1], GE, 0)])
    assert res.status == "unbounded"


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2
    res = solve_rows([1], [([-1], LE, -2), ([1], LE, 5)])
    assert res.status == "optimal"
    assert res.value == 5
    assert reads_agree([1], res)


def test_degenerate_redundant_equalities():
    res = solve_rows([1, 1], [([1, 1], EQ, 1), ([2, 2], EQ, 2)])
    assert res.status == "optimal"
    assert res.value == 1
    assert reads_agree([1, 1], res)


def test_exact_rationals_survive():
    objective, scale = int_objective([F(1, 3), F(1, 7)])
    assert (objective, scale) == ([7, 3], 21)
    res = solve_rows(objective, int_rows([([1, 1], EQ, 1), ([1, 0], LE, F(2, 5))]))
    assert res.status == "optimal"
    # put 2/5 on the better coefficient, the rest on the other
    assert res.value / scale == F(1, 3) * F(2, 5) + F(1, 7) * F(3, 5)
    assert res.solution == [F(2, 5), F(3, 5)]
    assert reads_agree(objective, res)


def test_determinism():
    rows = [([1, 2, 1], LE, 4), ([1, 1, 3], GE, 1), ([1, 1, 1], EQ, 2)]
    a = solve_rows([3, 1, 2], rows)
    b = solve_rows([3, 1, 2], rows)
    assert a == b
    assert reads_agree([3, 1, 2], a)



# --- the simplex core, on tableaux in the form the package builds -----------


def slack_region(n, rows):
    """rows_region of "<=" rows (coeffs, rhs, k) in ints, each with rhs >= 0
    and coprime with its slack unit k: one slack column per row, at k, and
    every slack basic, so the tableau is its own start, with no pivot."""
    return rows_region([(coeffs, LE, rhs, k) for coeffs, rhs, k in rows], n)


# Beale's LP (1955): max 3/4 x0 - 20 x1 + 1/2 x2 - 6 x3 over three "<="
# rows with rhs >= 0. It cycles under Dantzig's rule alone.
BEALE_ROWS = [
    ([F(1, 4), -8, -1, 9], LE, 0),
    ([F(1, 2), -12, F(-1, 2), 3], LE, 0),
    ([0, 0, 1, 0], LE, 1),
]
BEALE_OBJECTIVE = [F(3, 4), -20, F(1, 2), -6]


def beale_region():
    return slack_region(4, [(c, rhs, k) for c, _, rhs, k in int_rows(BEALE_ROWS)])


def test_beale_cycling_example_terminates(monkeypatch):
    # Beale's LP cycles under Dantzig's rule alone; the Bland fallback
    # after a run of degenerate pivots must break the cycle.
    from probarg import linprog

    pivot = linprog._pivot
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise AssertionError("simplex is cycling")
        pivot(*args)

    monkeypatch.setattr(linprog, "_pivot", counted)
    objective, scale = int_objective(BEALE_OBJECTIVE)
    res = solve_lp(objective, beale_region())
    assert res.status == "optimal"
    assert res.value / scale == F(5, 4)
    assert reads_agree(objective, res)


def test_bland_rule_takes_over_after_a_degenerate_run(monkeypatch):
    """On Beale's LP the first DEGENERATE_RUN pivots are degenerate and
    each enters the first column of largest reduced cost (Dantzig), where
    Bland's rule, the smallest improving index, would enter another at
    some of them; after six of them the basis is the start's again, the
    cycle. From then on until the first nondegenerate pivot, which it includes, each
    pivot enters Bland's column, which is not Dantzig's at some of them;
    after it, Dantzig's again."""
    from probarg import linprog

    pivot, log = linprog._pivot, []

    def recorded(tableau, basis, row, col):
        cost = tableau[-1][:-1]
        dantzig = max(range(len(cost)), key=lambda j: (cost[j], -j))
        bland = next(j for j, v in enumerate(cost) if v > 0)
        log.append((col, dantzig, bland, tableau[row][-1] == 0, tuple(basis)))
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(linprog, "_pivot", recorded)
    assert solve_lp(int_objective(BEALE_OBJECTIVE)[0], beale_region()).status == "optimal"
    entering, dantzig, bland, degenerate, bases = (list(v) for v in zip(*log))
    run = DEGENERATE_RUN
    assert all(degenerate[:run]) and entering[:run] == dantzig[:run] != bland[:run]
    assert bases[6] == bases[0]
    end = degenerate.index(False, run) + 1
    assert entering[run:end] == bland[run:end] != dantzig[run:end]
    assert entering[end:] == dantzig[end:]


def test_dantzig_takes_the_lowest_index_of_equal_reduced_costs():
    """Over x0 + x1 + x2 <= 1, of columns with equal largest reduced cost
    the lowest enters, and the optimum it reaches is that column alone.
    coherence's merged columns rely on it: a class's twin worlds never
    enter."""
    region = slack_region(3, [([1, 1, 1], 1, 1)])
    assert solve_lp([1, 1, 1], region).solution == [1, 0, 0]
    assert solve_lp([0, 1, 1], region).solution == [0, 1, 0]
    assert solve_lp([1, 2, 2], region).solution == [0, 1, 0]
    assert solve_lp([1, 1, 2], region).solution == [0, 0, 1]


# Large coprime denominators and big numerators make the integer tableau
# scale rows by big lcms and divide pivoted rows by nontrivial gcds.
COEFF = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -2, 3, F(1, 2), F(-1, 3), F(1, 997), F(-7, 1024), F(10**12, 3)]
)
RHS = st.sampled_from(
    [0, 0, 1, -1, 2, -2, F(1, 2), F(-3, 4), F(1, 997), F(-10**12, 7), F(10**12, 3)]
)


@st.composite
def lp_systems(draw):
    """Small rational systems: every relation, rhs of every sign, and
    often a redundant pair of equalities (a row and a multiple of it)."""
    n = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(COEFF, min_size=n, max_size=n), st.sampled_from([LE, GE, EQ]), RHS
    )
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        coeffs, _, rhs = draw(st.sampled_from(rows))
        k = draw(st.sampled_from([1, 2, -1, F(1, 2)]))
        rows += [(coeffs, EQ, rhs), ([k * v for v in coeffs], EQ, k * rhs)]
    return n, draw(st.permutations(rows))


def satisfies(rows, x):
    for coeffs, rel, rhs in rows:
        lhs = sum(F(c) * v for c, v in zip(coeffs, x))
        if not {LE: lhs <= rhs, GE: lhs >= rhs, EQ: lhs == rhs}[rel]:
            return False
    return all(v >= 0 for v in x)


@settings(max_examples=400, deadline=None)
@given(lp_systems(), st.data(), st.booleans())
def test_matches_bland_reference(system, data, maximize):
    n, rows = system
    objective = data.draw(st.lists(COEFF, min_size=n, max_size=n))
    ints, scale = int_objective(objective)
    got = solve_rows(ints, int_rows(rows), maximize)
    ref = bland_reference.solve_lp(objective, rows, maximize)
    assert got.status == ref.status
    if got.status == "optimal":
        assert got.value / scale == ref.value
        assert satisfies(rows, got.solution)
        assert sum(F(c) * v for c, v in zip(objective, got.solution)) == got.value / scale
        assert reads_agree(ints, got)


@settings(max_examples=200, deadline=None)
@given(lp_systems(), st.data())
def test_region_reuse_equals_fresh_solves(system, data):
    n, rows = system
    objectives = data.draw(
        st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=1, max_size=4)
    )
    rows = int_rows(rows)
    region = rows_region(rows, n)
    assert len(region) == len(rows)
    for objective in objectives + objectives[:1]:
        objective = int_objective(objective)[0]
        for maximize in (True, False):
            assert solve_lp(objective, region, maximize) == solve_rows(
                objective, rows, maximize
            )


def test_only_ints_are_accepted():
    # A Fraction, a str or a float raises TypeError when rows_region builds
    # a region, as a coefficient, an rhs or a slack unit, and when solve_lp
    # gets it in an objective.
    rows = [([2, 1, 0], LE, 4, 1), ([1, 3, 1], GE, 3), ([1, 1, 1], EQ, 3), ([0, -1, 2], LE, -1)]
    objective = [3, -1, 2]
    for bad in (F(1, 2), "1", 1.0):
        for spoiled in (
            [([2, bad, 0], LE, 4, 1)],
            [([2, 1, 0], LE, bad, 1)],
            [([2, 1, 0], LE, 4, bad)],
        ):
            with pytest.raises(TypeError):
                rows_region(spoiled + rows[1:], 3)
        region = rows_region(rows, 3)
        with pytest.raises(TypeError):
            solve_lp([3, bad, 2], region)
        with pytest.raises(TypeError):
            solve_rows([3, bad, 2], rows)
    # An all-int system still gives Fraction results.
    for maximize in (True, False):
        got = solve_rows(objective, rows, maximize)
        assert got.status == "optimal"
        assert all(type(v) is F for v in got.solution + [got.value])
        assert satisfies([row[:3] for row in rows], got.solution)


@settings(max_examples=200, deadline=None)
@given(st.lists(COEFF, min_size=1, max_size=4), st.sampled_from([LE, GE, EQ]), RHS)
def test_int_row_is_the_rational_row_times_its_slack_unit(coeffs, rel, rhs):
    ints, got_rel, int_rhs, *unit = int_row(coeffs, rel, rhs)
    assert got_rel == rel and len(unit) == (rel != EQ)
    # An "==" row has no slack unit; k is then the row's scale.
    k = unit[0] if unit else next(
        (F(v) / F(c) for v, c in zip([*ints, int_rhs], [*coeffs, rhs]) if c), F(1)
    )
    assert k > 0
    assert [F(v, k) for v in ints] == [F(v) for v in coeffs]
    assert F(int_rhs, k) == rhs
    assert gcd(*ints, int_rhs, *unit) == 1 or not any([*ints, int_rhs])


def test_an_equality_row_takes_no_slack_unit():
    """A slack unit on an "==" row is a caller error: rows_region and
    solve_rows raise ValueError, and int_row gives an "==" row none."""
    for k in (1, 2):
        with pytest.raises(ValueError, match="an '==' row has no slack"):
            rows_region([([1, 1], EQ, 1, k)], 2)
        with pytest.raises(ValueError, match="an '==' row has no slack"):
            solve_rows([1, 0], [([1, 1], EQ, 1, k), ([1, 0], LE, 1)])
    assert int_row([F(1, 2), F(1, 2)], EQ, F(1, 2)) == ([1, 1], EQ, 1)
    assert int_row([2, 4], EQ, 6) == ([1, 2], EQ, 3)
    assert int_row([F(1, 2), 0], LE, F(1, 2)) == ([1, 0], LE, 1, 2)


def test_a_slack_unit_must_be_positive():
    """A slack unit k <= 0 is a caller error. With k = -1, x0 + x1 <= 1
    would become x0 + x1 + s == 1 with s free to grow, and max x0 would
    come back unbounded; with k = 0 the row would become "==". rows_region and
    solve_rows raise ValueError."""
    for k in (0, -1, -2):
        for rel in (LE, GE):
            with pytest.raises(ValueError, match="a slack unit must be > 0"):
                rows_region([([1, 1], rel, 1, k)], 2)
        with pytest.raises(ValueError, match="a slack unit must be > 0"):
            solve_rows([1, 0], [([1, 1], LE, 1, k)])
    assert solve_rows([1, 0], [([1, 1], LE, 1, 3)]).value == 1


def test_a_row_has_at_most_four_items():
    """A row is (coeffs, relation, rhs) and maybe a slack unit; a fifth
    item is a caller error, not something to drop: ([1, 1], "<=", 1, 2, 5)
    was read as ([1, 1], "<=", 1, 2), and max x0 came back 1. rows_region and
    solve_rows raise ValueError."""
    for row in (([1, 1], LE, 1, 2, 5), ([1, 1], EQ, 1, 1, 1), ([1, 1], GE, 1, 1, 1, 1)):
        with pytest.raises(ValueError, match="at most four items"):
            rows_region([row], 2)
        with pytest.raises(ValueError, match="at most four items"):
            solve_rows([1, 0], [([1, 0], LE, 1), row])
    assert solve_rows([1, 0], [([1, 1], LE, 1, 2)]).value == 1


def unbuilt(*args):
    raise AssertionError("a start was made")


@pytest.mark.parametrize(
    "rows, n",
    [
        ([([1, 1], EQ, 1), ([0, 0], EQ, 3)], 2),
        ([([1, 1], LE, 1), ([0, 0], GE, 2)], 2),
        ([([0, 0, 0], LE, -1)], 3),
        ([([], EQ, 1)], 0),
        ([([], LE, 1), ([], GE, 1)], 0),
    ],
    ids=["==", ">=", "<= with rhs < 0", "no column", "no column, >="],
)
def test_an_empty_row_is_infeasible_with_no_tableau(monkeypatch, rows, n):
    """An "==" or ">=" row with rhs > 0 (after a "<=" row with rhs < 0 is
    negated) and no nonzero coefficient holds at no point: the region is
    infeasible, as the reference finds; it shows no support and no
    singletons, and a solve over it builds no tableau: no cost row, no
    simplex."""
    from probarg import linprog

    assert bland_reference.solve_lp([1] * n, rows).status == "infeasible"
    region = rows_region(rows, n)
    for name in ("_reduced_costs", "_simplex"):
        monkeypatch.setattr(linprog, name, unbuilt)
    assert region.support() is None and region.singletons() == 0
    assert solve_lp([1] * n, region).status == "infeasible"


@pytest.mark.parametrize("rows", [[], [([], 1)], [([], 2), ([], 3)]])
def test_a_region_with_no_column_makes_no_start(monkeypatch, rows):
    """Region(0, rows) has the row sum(x) == 1 over no column, which holds
    at no point: the region of a layer with no class. The empty-row rule
    finds it infeasible with no start: no crash, no phase 1."""
    from probarg import linprog

    for name in ("_start", "_crash", "_simplex"):
        monkeypatch.setattr(linprog, name, unbuilt)
    region = Region(0, rows)
    assert len(region) == 1 + len(rows)
    assert region.support() is None and region.singletons() == 0
    assert solve_lp([], region).status == "infeasible"


@pytest.mark.parametrize(
    "rows, n, best",
    [
        ([([1, 1], EQ, 1), ([0, 0], LE, 2)], 2, 1),
        ([([1, 1], EQ, 1), ([0, 0], EQ, 0), ([0, 0], GE, 0)], 2, 1),
        ([([], LE, 0), ([], EQ, 0)], 0, 0),
    ],
    ids=["<=", "rhs 0", "no column"],
)
def test_an_empty_row_that_holds_leaves_the_region_feasible(rows, n, best):
    """A "<=" row with rhs >= 0, or any row with rhs 0, and no nonzero
    coefficient holds at every point: the region keeps its optimum, with
    or without columns."""
    objective = [1] + [0] * (n - 1) if n else []
    assert bland_reference.solve_lp(objective, rows).value == best
    region = rows_region(rows, n)
    assert region.support() is not None
    assert solve_lp(objective, region).value == best


INT = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 7, -12, 10**12])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data(), st.booleans())
def test_all_int_systems_match_bland_reference(n, data, maximize):
    rows = data.draw(
        st.lists(
            st.tuples(
                st.lists(INT, min_size=n, max_size=n), st.sampled_from([LE, GE, EQ]), INT
            ),
            max_size=5,
        )
    )
    objective = data.draw(st.lists(INT, min_size=n, max_size=n))
    got = solve_rows(objective, rows, maximize)
    ref = bland_reference.solve_lp(objective, rows, maximize)
    assert got.status == ref.status
    if got.status == "optimal":
        assert got.value == ref.value
        assert satisfies(rows, got.solution)
        assert reads_agree(objective, got)


def test_region_arity_checked():
    region = slack_region(2, [([1, 1], 1, 1)])
    with pytest.raises(ValueError, match="arity"):
        solve_lp([1, 1, 1], region)


@st.composite
def normalized_systems(draw):
    """{sum(x) == 1, homogeneous rows} over 1..5 variables: the shape of a
    zero-layer region, with rows of every relation."""
    n = draw(st.integers(1, 5))
    row = st.tuples(st.lists(COEFF, min_size=n, max_size=n), st.sampled_from([LE, GE, EQ]))
    rows = [(coeffs, rel, 0) for coeffs, rel in draw(st.lists(row, max_size=6))]
    return n, rows


@settings(max_examples=400, deadline=None)
@given(normalized_systems(), st.data())
def test_charnes_cooper_start_equals_rebuilt_region(system, data):
    n, homogeneous = system
    region = rows_region([([1] * n, EQ, 1)] + int_rows(homogeneous), n)
    c = int_objective(data.draw(st.lists(COEFF, min_size=n, max_size=n)))[0]
    best = solve_lp(c, region)
    if best.status != "optimal" or best.value <= 0:
        return
    derived = region.charnes_cooper(best)
    rebuilt = rows_region(int_rows(homogeneous + [(c, EQ, 1)]), n)
    assert isinstance(derived, Region)
    assert (len(derived), derived.n) == (len(rebuilt), rebuilt.n)
    # The start is feasible for the rebuilt rows: it is their phase-1 point.
    assert satisfies(homogeneous + [(c, EQ, 1)], solve_lp([0] * n, derived).solution)
    for e in data.draw(st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=1, max_size=3)):
        e = int_objective(e)[0]
        for maximize in (True, False):
            got = solve_lp(e, derived, maximize)
            ref = solve_lp(e, rebuilt, maximize)
            assert (got.status, got.value) == (ref.status, ref.value)
            if got.status == "optimal":
                assert satisfies(homogeneous + [(c, EQ, 1)], got.solution)


def test_charnes_cooper_needs_a_positive_maximum_over_the_region():
    rows = [([1, 1, 1], EQ, 1), ([1, -1, 0], LE, 0)]
    region = rows_region(rows, 3)
    c = [0, 1, 1]
    with pytest.raises(ValueError, match="maximum over this region"):
        region.charnes_cooper(solve_lp(c, region, maximize=False))
    with pytest.raises(ValueError, match="maximum over this region"):
        region.charnes_cooper(solve_lp(c, rows_region(rows, 3)))
    with pytest.raises(ValueError, match="maximum over this region"):
        region.charnes_cooper(LPResult("optimal", F(1), [F(0), F(1), F(0)]))
    with pytest.raises(ValueError, match="positive maximum"):
        region.charnes_cooper(solve_lp([-1, 0, 0], region))
    best = solve_lp(c, region)
    assert best.value == 1
    assert "_optimum" not in repr(best)
    assert best == LPResult("optimal", best.value, best.solution)


def test_value_is_built_on_its_first_read():
    """A solve_lp optimum keeps its value as an int numerator over an int
    denominator. Reading numerator builds no Fraction; value is built once,
    on its first read, and the result's fields, == and repr are those of a
    result built with the value."""
    res = solve_rows([1, 1], [([1, 2], LE, 4), ([3, 1], LE, 6)])
    with mock.patch("probarg.linprog.Fraction", wraps=F) as built:
        assert res.numerator > 0 and built.call_count == 0
        assert res.value == F(14, 5) and built.call_count == 1
        assert res.value == F(14, 5) and built.call_count == 1
    assert res == LPResult("optimal", F(14, 5), [F(8, 5), F(6, 5)])
    assert repr(res) == repr(LPResult("optimal", F(14, 5), [F(8, 5), F(6, 5)]))
    assert solve_rows([-1, 0], [([1, 1], LE, 1)]).numerator == 0
    assert solve_rows([1, 1], [([1, 1], GE, 1)], maximize=False).numerator > 0
    assert solve_rows([-1, -1], [([1, 1], GE, 1)]).numerator < 0
    with pytest.raises(AttributeError, match="numerator"):
        LPResult("optimal", F(1), [F(1)]).numerator


def test_vertex_is_the_phase1_point():
    """A zero objective prices no column, so its solve stops at the start
    vertex with no pivot."""
    from probarg import linprog

    rows = [([2, 1, 0], LE, 4), ([1, 3, 1], GE, 3), ([1, 1, 1], EQ, 3)]
    region = rows_region(rows, 3)
    support = region.support()
    with mock.patch.object(linprog, "_pivot", wraps=linprog._pivot) as pivot:
        x = solve_lp([0, 0, 0], region).solution
    assert pivot.call_count == 0
    assert satisfies(rows, x)
    assert support == positive(x)
    infeasible = rows_region([([1, 1], LE, 1), ([1, 1], GE, 2)], 2)
    assert infeasible.support() is None
    assert solve_lp([0, 0], infeasible).status == "infeasible"


# --- the one-pivot crash start ----------------------------------------------

POSITIVE = st.sampled_from([1, 2, 3, F(1, 2), F(1, 997), F(10**12, 3)])
NONPOSITIVE = st.sampled_from([0, 0, -1, -2, F(-1, 3), F(-7, 1024)])
NONNEGATIVE = st.sampled_from([0, 0, 1, 2, F(1, 2), F(1, 997), F(10**12, 3)])
CRASH_CASES = ("one", "several", "none")


def crash_columns(eq, le_rows):
    """The columns the crash start may pivot on: positive in the "==" row,
    <= 0 in every "<=" row."""
    return [j for j, v in enumerate(eq) if v > 0 and all(r[j] <= 0 for r in le_rows)]


def plant(draw, eq, le_rows, case):
    """Change the columns of {eq, le_rows} in place so that exactly one,
    two or more, or none of them can start the crash, as case says."""
    n = len(eq)
    k = draw(st.integers(2, n)) if case == "several" else int(case == "one")
    chosen = set(draw(st.permutations(range(n)))[:k])
    for j in range(n):
        if j in chosen:
            if eq[j] <= 0:
                eq[j] = draw(POSITIVE)
            for r in le_rows:
                if r[j] > 0:
                    r[j] = draw(NONPOSITIVE)
        elif j in crash_columns(eq, le_rows):
            if le_rows:
                le_rows[draw(st.integers(0, len(le_rows) - 1))][j] = draw(POSITIVE)
            else:
                eq[j] = draw(NONPOSITIVE)


@st.composite
def one_artificial_systems(draw):
    """One "==" row with rhs > 0, its coefficients not all 1, then "<=" rows
    with rhs >= 0: rows with exactly one artificial, whose columns admit
    one, several or no crash start."""
    case = draw(st.sampled_from(CRASH_CASES))
    n = draw(st.integers(2, 5))
    eq = draw(st.lists(COEFF, min_size=n, max_size=n))
    le_rows = draw(st.lists(st.lists(COEFF, min_size=n, max_size=n), max_size=4))
    plant(draw, eq, le_rows, case)
    if all(v == 1 for v in eq):
        eq[0] = 2
    rows = [(eq, EQ, draw(POSITIVE))] + [(r, LE, draw(NONNEGATIVE)) for r in le_rows]
    return case, n, draw(st.permutations(rows))


def started(rows, n):
    """The region of rows over n variables, and whether its start took the
    one-pivot crash start, with no phase-1 simplex."""
    with solver_counts.starts() as made:
        region = rows_region(rows, n)
    [(_, _, kind)] = made
    return region, kind == "crash"


def assert_basic_feasible(start):
    """Positive basic coefficients, rhs >= 0, and each basic column zero in
    every other row."""
    tableau, basis, _ = start
    assert len(set(basis)) == len(basis)
    for i, (row, b) in enumerate(zip(tableau, basis)):
        assert row[b] > 0 and row[-1] >= 0
        assert all(other[b] == 0 for k, other in enumerate(tableau) if k != i)


@settings(max_examples=200, deadline=None)
@given(one_artificial_systems(), st.data())
def test_crash_start_matches_bland_reference(system, data):
    case, n, rows = system
    le_rows = [c for c, rel, _ in rows if rel == LE]
    eq = next(c for c, rel, _ in rows if rel == EQ)
    columns = crash_columns(eq, le_rows)
    assert bool(columns) == (case != "none")
    region, crashed = started(int_rows(rows), n)
    start = region._base
    assert crashed == (case != "none")
    if start is None:
        assert case == "none"
    else:
        assert_basic_feasible(start)
        x = solve_lp([0] * n, region).solution
        assert satisfies(rows, x)
        if crashed:
            # All the mass sits on the smallest column that allows the crash,
            # and each such column alone is a feasible point.
            assert [j for j, v in enumerate(x) if v] == columns[:1]
            assert region.support() == region.singletons() == sum(1 << j for j in columns)
            rhs = next(r for _, rel, r in rows if rel == EQ)
            for j in columns:
                assert satisfies(rows, [F(rhs) / F(eq[j]) if k == j else 0 for k in range(n)])
        else:
            assert region.support() == positive(x)
            assert region.singletons() == 0
    for objective in data.draw(
        st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=1, max_size=3)
    ):
        ints, scale = int_objective(objective)
        for maximize in (True, False):
            got = solve_lp(ints, region, maximize)
            ref = bland_reference.solve_lp(objective, rows, maximize)
            assert got.status == ref.status
            if got.status == "optimal":
                assert got.value / scale == ref.value
                assert satisfies(rows, got.solution)


def test_a_crash_start_at_rhs_0_shows_no_positive_column():
    """x + y == 0 starts in one pivot, but only x = y = 0 is feasible, so
    neither column that allowed the pivot is positive anywhere."""
    region, crashed = started([([1, 1], EQ, 0), ([-1, 0], LE, 0)], 2)
    assert crashed
    assert solve_lp([0, 0], region).solution == [0, 0]
    assert region.support() == region.singletons() == 0
    region = rows_region([([1, 1], EQ, 2), ([-1, 0], LE, 0)], 2)
    assert region.support() == region.singletons() == 0b11


def test_singletons_are_the_crash_columns():
    """x + y + z == 1 with x <= y: y and z allow the crash start, each alone
    a feasible point, and x does not (it is positive in x - y <= 0). With
    y <= x too, no column allows it: phase 1 starts the region at x = y =
    1/2, a point that singletons() does not show, and an infeasible region
    shows none either."""
    region, crashed = started([([1, 1, 1], EQ, 1), ([1, -1, 0], LE, 0)], 3)
    assert crashed and region.singletons() == 0b110
    for j in (1, 2):
        point = [F(k == j) for k in range(3)]
        assert satisfies([([1, 1, 1], EQ, 1), ([1, -1, 0], LE, 0)], point)
    rows = [([1, 1], EQ, 1), ([1, -1], LE, 0), ([-1, 1], LE, 0)]
    region, crashed = started(rows, 2)
    assert region._base is not None and not crashed
    assert region.singletons() == 0 and region.support() == 0b11
    assert rows_region([([1, 1], EQ, 1), ([1, 1], GE, 2)], 2).singletons() == 0


def test_a_fair_share_take_the_crash_start():
    taken = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(one_artificial_systems())
    def run(system):
        _, n, rows = system
        taken.append(started(int_rows(rows), n)[1])

    run()
    assert len(taken) >= 100
    assert sum(taken) >= len(taken) / 2


@st.composite
def crash_layer_systems(draw):
    """{sum(x) == 1, H x <= 0}, the shape of a zero-layer region, with one
    or more columns <= 0 in every H row."""
    n = draw(st.integers(2, 5))
    eq = [1] * n
    h_rows = draw(st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=1, max_size=5))
    plant(draw, eq, h_rows, draw(st.sampled_from(["one", "several"])))
    return n, [(r, LE, 0) for r in h_rows]


@settings(max_examples=200, deadline=None)
@given(crash_layer_systems(), st.data())
def test_charnes_cooper_from_a_crash_start_equals_rebuilt_region(system, data):
    n, homogeneous = system
    region, crashed = started([([1] * n, EQ, 1)] + int_rows(homogeneous), n)
    assert crashed
    c = int_objective(data.draw(st.lists(COEFF, min_size=n, max_size=n)))[0]
    best = solve_lp(c, region)
    if best.value <= 0:
        return
    derived = region.charnes_cooper(best)
    rebuilt = homogeneous + [(c, EQ, 1)]
    assert satisfies(rebuilt, solve_lp([0] * n, derived).solution)
    for e in data.draw(st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=1, max_size=3)):
        e = int_objective(e)[0]
        for maximize in (True, False):
            got = solve_lp(e, derived, maximize)
            ref = solve_lp(e, rows_region(int_rows(rebuilt), n), maximize)
            assert (got.status, got.value) == (ref.status, ref.value)
            if got.status == "optimal":
                assert satisfies(rebuilt, got.solution)


def test_crash_start_checks_its_invariant(monkeypatch):
    # A pivot that left a negative basic coefficient must raise, not pass
    # (an assert would vanish under python -O).
    from probarg import linprog

    pivot, calls = linprog._pivot, []

    def broken(tableau, basis, row, col):
        # The crash start is one pivot; a second would be phase 1 on a
        # broken tableau.
        assert not calls, "no crash start"
        calls.append(row)
        pivot(tableau, basis, row, col)
        tableau[row] = [-v for v in tableau[row]]

    monkeypatch.setattr(linprog, "_pivot", broken)
    with pytest.raises(RuntimeError, match="crash start broke the tableau invariant"):
        rows_region([([2, 1], EQ, 1), ([1, -1], LE, 0)], 2)
