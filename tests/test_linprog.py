from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bland_reference
from int_rows import int_objective, int_row, int_rows
from probarg.linprog import EQ, GE, LE, LPResult, Region, solve_lp


def positive(x):
    """The entries of x that are positive, as an int mask: bit j for x_j."""
    return sum(1 << j for j, v in enumerate(x) if v > 0)


def reads_agree(objective, res):
    """An optimal result's value and support(), read off its tableau in
    ints, are those its solution in Fractions gives."""
    x = res.solution
    return res.value == sum(F(c) * v for c, v in zip(objective, x)) and res.support() == positive(x)


def test_simple_max():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    res = solve_lp([1, 1], [([1, 2], LE, 4), ([3, 1], LE, 6)])
    assert res.status == "optimal"
    assert res.value == F(14, 5)
    assert res.solution == [F(8, 5), F(6, 5)]
    assert reads_agree([1, 1], res)


def test_min_with_equality():
    # min x + y s.t. x + y + z == 1, x >= 1/3
    res = solve_lp(
        [1, 1, 0],
        int_rows([([1, 1, 1], EQ, 1), ([1, 0, 0], GE, F(1, 3))]),
        maximize=False,
    )
    assert res.status == "optimal"
    assert res.value == F(1, 3)
    assert reads_agree([1, 1, 0], res)


def test_infeasible():
    res = solve_lp([1], [([1], GE, 2), ([1], LE, 1)])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([1], [([1], GE, 0)])
    assert res.status == "unbounded"


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2
    res = solve_lp([1], [([-1], LE, -2), ([1], LE, 5)])
    assert res.status == "optimal"
    assert res.value == 5
    assert reads_agree([1], res)


def test_degenerate_redundant_equalities():
    res = solve_lp([1, 1], [([1, 1], EQ, 1), ([2, 2], EQ, 2)])
    assert res.status == "optimal"
    assert res.value == 1
    assert reads_agree([1, 1], res)


def test_exact_rationals_survive():
    objective, scale = int_objective([F(1, 3), F(1, 7)])
    assert (objective, scale) == ([7, 3], 21)
    res = solve_lp(objective, int_rows([([1, 1], EQ, 1), ([1, 0], LE, F(2, 5))]))
    assert res.status == "optimal"
    # put 2/5 on the better coefficient, the rest on the other
    assert res.value / scale == F(1, 3) * F(2, 5) + F(1, 7) * F(3, 5)
    assert res.solution == [F(2, 5), F(3, 5)]
    assert reads_agree(objective, res)


def test_determinism():
    rows = [([1, 2, 1], LE, 4), ([1, 1, 3], GE, 1), ([1, 1, 1], EQ, 2)]
    a = solve_lp([3, 1, 2], rows)
    b = solve_lp([3, 1, 2], rows)
    assert a == b
    assert reads_agree([3, 1, 2], a)



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
    rows = [
        ([F(1, 4), -8, -1, 9], LE, 0),
        ([F(1, 2), -12, F(-1, 2), 3], LE, 0),
        ([0, 0, 1, 0], LE, 1),
    ]
    objective, scale = int_objective([F(3, 4), -20, F(1, 2), -6])
    res = solve_lp(objective, int_rows(rows))
    assert res.status == "optimal"
    assert res.value / scale == F(5, 4)
    assert reads_agree(objective, res)


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
    got = solve_lp(ints, int_rows(rows), maximize)
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
    region = Region(rows, n)
    assert len(region) == len(rows)
    for objective in objectives + objectives[:1]:
        objective = int_objective(objective)[0]
        for maximize in (True, False):
            assert solve_lp(objective, region, maximize) == solve_lp(
                objective, rows, maximize
            )


def test_only_ints_are_accepted():
    # A Fraction, a str or a float raises TypeError when the region is
    # built, as a coefficient, an rhs or a slack unit, and when solve_lp
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
                Region(spoiled + rows[1:], 3)
        region = Region(rows, 3)
        with pytest.raises(TypeError):
            solve_lp([3, bad, 2], region)
        with pytest.raises(TypeError):
            solve_lp([3, bad, 2], rows)
    # An all-int system still gives Fraction results.
    for maximize in (True, False):
        got = solve_lp(objective, rows, maximize)
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
    """A slack unit on an "==" row is a caller error: Region and solve_lp
    raise ValueError, and int_row gives an "==" row none."""
    for k in (1, 2):
        with pytest.raises(ValueError, match="an '==' row has no slack"):
            Region([([1, 1], EQ, 1, k)], 2)
        with pytest.raises(ValueError, match="an '==' row has no slack"):
            solve_lp([1, 0], [([1, 1], EQ, 1, k), ([1, 0], LE, 1)])
    assert int_row([F(1, 2), F(1, 2)], EQ, F(1, 2)) == ([1, 1], EQ, 1)
    assert int_row([2, 4], EQ, 6) == ([1, 2], EQ, 3)
    assert int_row([F(1, 2), 0], LE, F(1, 2)) == ([1, 0], LE, 1, 2)


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
    got = solve_lp(objective, rows, maximize)
    ref = bland_reference.solve_lp(objective, rows, maximize)
    assert got.status == ref.status
    if got.status == "optimal":
        assert got.value == ref.value
        assert satisfies(rows, got.solution)
        assert reads_agree(objective, got)


def test_region_arity_checked():
    region = Region([([1, 1], LE, 1)], 2)
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
    region = Region([([1] * n, EQ, 1)] + int_rows(homogeneous), n)
    c = int_objective(data.draw(st.lists(COEFF, min_size=n, max_size=n)))[0]
    best = solve_lp(c, region)
    if best.status != "optimal" or best.value <= 0:
        return
    derived = region.charnes_cooper(best)
    rebuilt = Region(int_rows(homogeneous + [(c, EQ, 1)]), n)
    assert isinstance(derived, Region)
    assert (len(derived), derived.n) == (len(rebuilt), rebuilt.n)
    # The start is feasible for the rebuilt rows: it is their phase-1 point.
    assert satisfies(homogeneous + [(c, EQ, 1)], derived.vertex())
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
    region = Region(rows, 3)
    c = [0, 1, 1]
    with pytest.raises(ValueError, match="maximum over this region"):
        region.charnes_cooper(solve_lp(c, region, maximize=False))
    with pytest.raises(ValueError, match="maximum over this region"):
        region.charnes_cooper(solve_lp(c, Region(rows, 3)))
    with pytest.raises(ValueError, match="maximum over this region"):
        region.charnes_cooper(LPResult("optimal", F(1), [F(0), F(1), F(0)]))
    with pytest.raises(ValueError, match="positive maximum"):
        region.charnes_cooper(solve_lp([-1, 0, 0], region))
    for bad in ([([1, 2, 1], EQ, 1)], [([1, 1, 1], EQ, 1), ([1, -1, 0], LE, 1)]):
        other = Region(bad, 3)
        with pytest.raises(ValueError, match="first row|homogeneous"):
            other.charnes_cooper(solve_lp(c, other))
    best = solve_lp(c, region)
    assert best.value == 1
    assert "_optimum" not in repr(best)
    assert best == LPResult("optimal", best.value, best.solution)


def test_vertex_is_the_phase1_point():
    rows = [([2, 1, 0], LE, 4), ([1, 3, 1], GE, 3), ([1, 1, 1], EQ, 3)]
    region = Region(rows, 3)
    x = region.vertex()
    assert satisfies(rows, x)
    assert x == solve_lp([0, 0, 0], region).solution
    assert region.support() == positive(x)
    infeasible = Region([([1, 1], LE, 1), ([1, 1], GE, 2)], 2)
    assert infeasible.vertex() is infeasible.support() is None


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


def started(region):
    """region's start, and whether it took the one-pivot crash start: one
    pivot and no simplex run."""
    from probarg import linprog

    with mock.patch.object(linprog, "_pivot", wraps=linprog._pivot) as pivot, \
            mock.patch.object(linprog, "_simplex", wraps=linprog._simplex) as simplex:
        start = region._start
    return start, pivot.call_count == 1 and simplex.call_count == 0


def assert_basic_feasible(start):
    """Positive basic coefficients, rhs >= 0, and each basic column zero in
    every other row."""
    tableau, basis = start
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
    region = Region(int_rows(rows), n)
    start, crashed = started(region)
    assert crashed == (case != "none")
    if start is None:
        assert case == "none"
    else:
        assert_basic_feasible(start)
        x = region.vertex()
        assert satisfies(rows, x)
        if crashed:
            # All the mass sits on the smallest column that allows the crash,
            # and each such column alone is a feasible point.
            assert [j for j, v in enumerate(x) if v] == columns[:1]
            assert region.support() == sum(1 << j for j in columns)
            rhs = next(r for _, rel, r in rows if rel == EQ)
            for j in columns:
                assert satisfies(rows, [F(rhs) / F(eq[j]) if k == j else 0 for k in range(n)])
        else:
            assert region.support() == positive(x)
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
    region = Region([([1, 1], EQ, 0), ([-1, 0], LE, 0)], 2)
    assert started(region)[1]
    assert region.vertex() == [0, 0]
    assert region.support() == 0
    assert Region([([1, 1], EQ, 2), ([-1, 0], LE, 0)], 2).support() == 0b11


def test_a_fair_share_take_the_crash_start():
    taken = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(one_artificial_systems())
    def run(system):
        _, n, rows = system
        taken.append(started(Region(int_rows(rows), n))[1])

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
    region = Region([([1] * n, EQ, 1)] + int_rows(homogeneous), n)
    assert started(region)[1]
    c = int_objective(data.draw(st.lists(COEFF, min_size=n, max_size=n)))[0]
    best = solve_lp(c, region)
    if best.value <= 0:
        return
    derived = region.charnes_cooper(best)
    rebuilt = homogeneous + [(c, EQ, 1)]
    assert satisfies(rebuilt, derived.vertex())
    for e in data.draw(st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=1, max_size=3)):
        e = int_objective(e)[0]
        for maximize in (True, False):
            got = solve_lp(e, derived, maximize)
            ref = solve_lp(e, Region(int_rows(rebuilt), n), maximize)
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
    region = Region([([2, 1], EQ, 1), ([1, -1], LE, 0)], 2)
    with pytest.raises(RuntimeError, match="crash start broke the tableau invariant"):
        region.vertex()
