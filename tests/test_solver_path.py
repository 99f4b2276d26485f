"""The solver path against the plain procedure it shortens.

propagate starts the Charnes-Cooper program from the max-m optimum, the
zero-layer procedure tests the supports of points it already has (the
start, the witness, the max-m solution) before any forced-zero solve,
propagate decides whether m_q can be 0, and finds what is forced with it,
over the layer without the worlds of q's antecedent instead of solving
min m and adding the row m_q = 0, and it descends no further than a layer
whose bounds are [0, 1]. Here all four are checked against the procedure
without those steps: a Charnes-Cooper region rebuilt from its rows (phase
1 and all), a forced-zero fixpoint that starts from the max-sum solve and
reads each solution in Fractions, the row m_q = 0, a descent wherever min
m = 0, and feasibility decided by a solve. Inputs are
random assessments over 2-4 declared atoms (1-5 used and 0-3 unused for the
merged columns), some of them unused, with zero-probability premises
(zero-layer descents) and incoherent premise sets.
A layer that builds both premise rows of every entry, implied or not, is the
reference for the rows a layer skips, a layer with one column per world
the reference for the classes of worlds a layer merges into one column, and
vertex enumeration and a layer that keeps every class the references for
the classes a layer's presolve drops. Every layer the solver builds is
checked against its contract derived world by world (layer_reference).

The references find what holds at each world with eval_classical over
constituents(), not with the solver's truth tables, so they also check the
tables, the domain of each deeper layer and the objective rows.
"""

import importlib.util
import random
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import solver_counts
from general_rows import EQ, LE, rows_region
from int_rows import int_row
from layer_reference import ReferenceLayer, built_region, check_layer, obj_tables, worlds_of
from oracles import (
    assessment_polytope_rows,
    conditional_value,
    enumerate_vertices,
    vertex_bounds,
    witness_satisfies,
)
from probarg import coherence, linprog
from probarg.coherence import (
    Assessment,
    AssessmentEntry,
    Bounds,
    Coherent,
    Incoherent,
    IncoherentPremises,
    check_coherence,
    classify,
    propagate,
)
from probarg.events import (
    TOP,
    And,
    Atom,
    ConditionalObject,
    Not,
    Or,
    constituents,
    eval_classical,
    is_satisfiable,
    truth_table,
)
from probarg.linprog import solve_lp

NAMES = ("A", "B", "C", "D")
TENTHS = [F(k, 10) for k in range(11)]
WIDEN = (F(0), F(0), F(1, 10), F(1, 4), F(1))


def structural_bounds(q):
    """[0, 0] or [1, 1] where logic alone settles q, read off its tables
    over its own atoms, else None."""
    names = sorted(q.atoms())
    m = truth_table(q.antecedent, names)
    e = m & truth_table(q.consequent, names)
    return Bounds(F(0), F(0)) if not e else Bounds(F(1), F(1)) if e == m else None


def _formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.4:
        f = Atom(rng.choice(atoms))
        return Not(f) if rng.random() < 0.3 else f
    op = rng.choice((And, Or, Not))
    if op is Not:
        return Not(_formula(rng, atoms, depth - 1))
    return op(_formula(rng, atoms, depth - 1), _formula(rng, atoms, depth - 1))


def _conditional(rng, atoms):
    while True:
        ante = TOP if rng.random() < 0.4 else _formula(rng, atoms, 1)
        if is_satisfiable(ante):
            return ConditionalObject(_formula(rng, atoms, 2), ante)


def random_problem(rng):
    """(assessment, query, declared atoms) over 2-4 declared atoms, one or
    two of them unused a third of the time; see problem_over."""
    declared = NAMES[: rng.randint(2, 4)]
    pad = rng.randint(1, min(2, len(declared) - 1)) if rng.random() < 1 / 3 else 0
    used = sorted(rng.sample(declared, len(declared) - pad))
    a, query = problem_over(rng, used)
    return a, query, declared


def problem_over(rng, used):
    """(assessment, query) over the atoms used. The intervals hold the
    values of a sparse random mass vector; a conditional whose antecedent
    has no mass there gets any value. Nearly half the sets pin an event to
    probability 0 and condition premises (and often the query) on it, which
    sends them to a deeper layer. A quarter have one interval drawn at
    random instead, which is often incoherent."""
    worlds = constituents(used)
    lam = [rng.choice((0, 0, 1, 2, 3)) for _ in worlds]
    zero = None
    if rng.random() < 0.45:
        zero = _formula(rng, used, 1)
        held = [eval_classical(zero, v) for v in worlds]
        if all(held) or not any(held):
            zero = None
        else:
            lam = [0 if h else x + 1 for h, x in zip(held, lam)]
    lam[rng.choice([j for j, x in enumerate(lam) if x or zero is None])] += 1
    lam = [F(x, sum(lam)) for x in lam]

    def around(obj):
        value = conditional_value(obj, worlds, lam)
        if value is None:
            value = rng.choice((F(0), F(1, 3), F(1)))
        lo = max(F(0), value - rng.choice(WIDEN))
        hi = min(F(1), value + rng.choice(WIDEN))
        return AssessmentEntry(obj, lo, hi)

    entries = [around(_conditional(rng, used)) for _ in range(rng.randint(1, 3))]
    query = _conditional(rng, used)
    if zero is not None:
        entries.append(AssessmentEntry(ConditionalObject(zero), F(0), F(0)))
        entries += [
            around(ConditionalObject(_formula(rng, used, 1), zero))
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < 0.5:
            query = ConditionalObject(query.consequent, zero)
    if rng.random() < 0.25:
        i = rng.randrange(len(entries))
        lo, hi = sorted(rng.choice(TENTHS) for _ in range(2))
        entries[i] = AssessmentEntry(entries[i].obj, lo, hi)
    rng.shuffle(entries)
    return Assessment(tuple(entries)), query


def everywhere(atoms):
    """The mask of all the worlds over the atoms: the level-0 domain."""
    return (1 << (1 << len(atoms))) - 1


def eval_tables(entries, atoms):
    """Per entry, the (m, e) tables a layer takes, world by world."""
    return [obj_tables(e.obj, atoms) for e in entries]


def restrict(atoms, domain, antecedents):
    """The worlds of domain where some antecedent formula holds, as a mask."""
    dicts = constituents(atoms)
    return sum(
        1 << w
        for w in worlds_of(domain)
        if any(eval_classical(f, dicts[w]) for f in antecedents)
    )


def q_rows(q, atoms, layer):
    """The m and e rows of the query over the layer's columns, read with
    eval_classical at each column's representative."""
    worlds = constituents(atoms)
    return tuple(
        [int(eval_classical(f, worlds[r])) for r in layer.reps]
        for f in (q.antecedent, And(q.antecedent, q.consequent))
    )


def layer_rows(layer):
    """The layer's entry rows, (row, k) pairs, as the "<=" rows with rhs 0
    that rows_region takes."""
    return [(row, LE, 0, k) for row, k in layer.homogeneous]


def forced_by_fixpoint(layer, region):
    """The forced-zero set by the max-sum fixpoint alone, without probes."""
    candidates = list(range(len(layer.entries)))
    while candidates:
        res = solve_lp(layer.antecedent_mass(candidates), region)
        assert res.status == "optimal"
        if res.value == 0:
            return candidates
        candidates = [
            i
            for i in candidates
            if not any(x and layer.m_cols[i] >> r & 1 for x, r in zip(res.solution, layer.reps))
        ]
    return candidates


def layers_by_fixpoint(a, atoms, q=None):
    """Every layer of the zero-layer procedure with its forced set, and the
    level that fails (None when coherent). A max-sum solve decides each
    layer's feasibility. With a query q, the layers' columns tell its
    tables apart too."""
    entries, domain = list(a.entries), everywhere(atoms)
    extra = () if q is None else obj_tables(q, atoms)
    layers = []
    while True:
        layer = coherence._Layer(entries, eval_tables(entries, atoms), domain, extra)
        region = layer.region()
        if solve_lp(layer.antecedent_mass(range(len(entries))), region).status == "infeasible":
            return layers, len(layers)
        forced = forced_by_fixpoint(layer, region)
        layers.append((layer, region, forced))
        if not forced:
            return layers, None
        entries = [entries[i] for i in forced]
        domain = restrict(atoms, domain, [e.obj.antecedent for e in entries])


def warm_bounds(region, max_m, e_row):
    """min/max of e/m over a layer region, both solved by _ratio_bound over
    the Charnes-Cooper region started from the max m optimum."""
    scaled = region.charnes_cooper(max_m)
    return tuple(coherence._ratio_bound(scaled, e_row, up) for up in (False, True))


def rebuilt_bounds(layer, m_row, e_row):
    """min/max of e/m over the layer: the Charnes-Cooper region rebuilt
    from its rows and run through its own phase 1."""
    region = rows_region(layer_rows(layer) + [(m_row, EQ, 1)], len(layer.reps))
    lo = solve_lp(e_row, region, maximize=False)
    hi = solve_lp(e_row, region, maximize=True)
    return region, lo.value, hi.value


def propagate_by_rebuilding(layer, region, q, atoms, levels=None):
    """Bounds on p(q) over one layer, each Charnes-Cooper region rebuilt,
    each forced set found by the fixpoint alone, and every layer where min
    m = 0 descended. levels, when given, gets each layer's own interval
    (lo, hi), or None where max m = 0, from the top down."""
    m_row, e_row = q_rows(q, atoms, layer)
    max_m = solve_lp(m_row, region)
    if max_m.value == 0:
        if levels is not None:
            levels.append(None)
        forced = forced_by_fixpoint(layer, region)
        return descend_by_rebuilding(layer, forced, q, atoms, levels)
    _, lo, hi = rebuilt_bounds(layer, m_row, e_row)
    if levels is not None:
        levels.append((lo, hi))
    if solve_lp(m_row, region, maximize=False).value > 0:
        return Bounds(lo, hi)
    n = len(layer.reps)
    pinned = rows_region([([1] * n, EQ, 1)] + layer_rows(layer) + [(m_row, EQ, 0)], n)
    forced = forced_by_fixpoint(layer, pinned)
    deeper = descend_by_rebuilding(layer, forced, q, atoms, levels)
    return Bounds(min(lo, deeper.lo), max(hi, deeper.hi))


def descend_by_rebuilding(layer, forced, q, atoms, levels=None):
    entries = [layer.entries[i] for i in forced]
    domain = restrict(
        atoms, layer.domain, [q.antecedent] + [e.obj.antecedent for e in entries]
    )
    sub = coherence._Layer(entries, eval_tables(entries, atoms), domain, obj_tables(q, atoms))
    return propagate_by_rebuilding(sub, sub.region(), q, atoms, levels)


def check_problem(a, q, atoms, rng):
    """Compare the solver path with the plain procedure on one problem; rng
    picks extra feasible points to try first. Returns what the problem
    reached: "incoherent", "incoherent deeper", "descent", "vertex oracle"."""
    reached = set()
    layers, failed = layers_by_fixpoint(a, atoms, q)

    # Verdicts and levels
    verdict = check_coherence(a, atoms)
    if failed is not None:
        assert isinstance(verdict, Incoherent) and verdict.level == failed
        with pytest.raises(IncoherentPremises) as err:
            propagate(a, q, atoms)
        assert err.value.certificate == verdict
        return {"incoherent", "incoherent deeper"} if failed else {"incoherent"}
    assert isinstance(verdict, Coherent)

    # Forced sets, whatever feasible points are tried first
    for layer, region, forced in layers:
        points = [
            layer.worlds(solve_lp([rng.randint(-2, 2) for _ in layer.reps], region).support())
            for _ in range(2)
        ]
        support = solve_lp(layer.antecedent_mass(range(len(layer.entries))), region)
        assert coherence._forced_zero(layer, region) == forced
        assert coherence._forced_zero(layer, region, points) == forced
        assert coherence._forced_zero(layer, region, points, res=support) == forced
    if len(layers) > 1:
        reached.add("descent")

    # Bounds: warm-started against rebuilt, and end to end
    if structural_bounds(q) is not None:
        return reached
    layer, region, _ = layers[0]
    assert propagate(a, q, atoms) == propagate_by_rebuilding(layer, region, q, atoms)
    m_row, e_row = q_rows(q, atoms, layer)
    max_m = solve_lp(m_row, region)
    if max_m.value == 0:
        return reached
    derived = region.charnes_cooper(max_m)
    rebuilt, lo, hi = rebuilt_bounds(layer, m_row, e_row)
    assert (len(derived), derived.n) == (len(rebuilt), rebuilt.n)
    assert warm_bounds(region, max_m, e_row) == (lo, hi)
    if len(layer.reps) <= 4:
        dicts = constituents(atoms)
        assert vertex_bounds(layer.entries, [dicts[w] for w in layer.reps], q) == (lo, hi)
        reached.add("vertex oracle")
    return reached


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_solver_path_matches_plain_procedure(rng):
    a, q, atoms = random_problem(rng)
    check_problem(a, q, atoms, rng)


def test_solver_path_matches_plain_procedure_seeded():
    """480 seeded problems, which reach every case the comparison is for."""
    reached = dict.fromkeys(
        ("incoherent", "incoherent deeper", "descent", "vertex oracle", "padded"), 0
    )
    rng = random.Random("solver-path")
    for _ in range(480):
        a, q, atoms = random_problem(rng)
        for key in check_problem(a, q, atoms, rng):
            reached[key] += 1
        reached["padded"] += len(a.atoms() | q.atoms()) < len(atoms)
    assert min(reached.values()) >= 20, reached


# --- implied premise rows ----------------------------------------------------
#
# A layer builds a premise row only where it has a positive coefficient:
# lo*m <= e when lo > 0 and e fails somewhere on m, e <= hi*m when hi < 1 and
# e holds somewhere; x >= 0 implies the rows it skips. Here it is checked
# against a layer that builds both rows for every entry, on assessments full
# of implied rows.


def full_layer(atoms):
    """FullLayer over the declared atoms: the layer with both rows
    lo*m <= e <= hi*m for every entry, implied or not, as ">=" rows found
    column by column in Fractions with eval_classical at the column's
    lowest world, then given to linprog in int form (int_row).
    It takes _Layer's arguments and its columns (_Layer.reps, cols and the
    crash points singles: the implied rows are positive nowhere, so they
    leave every crash point), and reads of the tables only the deeper
    layers' domains (_Layer.deeper). Its ">=" rows are not in the form of
    the tableau _Layer builds, so it keeps them as rows, and its region
    goes through rows_region's checks and normalisation of each row."""
    dicts = constituents(atoms)

    class FullLayer(coherence._Layer):
        def __init__(self, entries, tables, domain, extra=()):
            super().__init__(entries, tables, domain, extra)
            n = len(self.reps)
            self.m_cols, self.rows = [], []
            for entry in entries:
                m_cols, lo_row, hi_row = 0, [F(0)] * n, [F(0)] * n
                for k, w in enumerate(self.reps):
                    if eval_classical(entry.obj.antecedent, dicts[w]):
                        m_cols |= 1 << w
                        lo_row[k] -= entry.lo
                        hi_row[k] += entry.hi
                        if eval_classical(entry.obj.consequent, dicts[w]):
                            lo_row[k] += 1
                            hi_row[k] -= 1
                self.m_cols.append(m_cols)
                self.rows += [int_row(lo_row, ">=", 0), int_row(hi_row, ">=", 0)]

        def region(self):
            n = len(self.reps)
            return rows_region([([1] * n, EQ, 1)] + self.rows, n)

    return FullLayer


INTERVAL_KINDS = ("zero", "one", "free", "lo 0", "hi 1", "any")
CONSEQUENT_KINDS = ("antecedent", "top", "contradicts", "any")


def kinded_problem(rng):
    """(assessment, query, declared atoms) over 2-4 declared atoms, one or
    two of them unused a third of the time. Each entry's interval is [0, 0],
    [1, 1], [0, 1], [0, hi], [lo, 1] or any, and its consequent is its
    antecedent, TOP, the antecedent's negation or any formula. In 2 of 5
    sets an event Z gets p(Z) = 0 and half the entries are conditioned on
    it, which sends them to a deeper layer."""
    declared = NAMES[: rng.randint(2, 4)]
    pad = rng.randint(1, min(2, len(declared) - 1)) if rng.random() < 1 / 3 else 0
    used = sorted(rng.sample(declared, len(declared) - pad))
    entries = []
    zero = _conditional(rng, used).consequent if rng.random() < 0.4 else None
    if zero is not None and is_satisfiable(zero):
        entries.append(AssessmentEntry(ConditionalObject(zero), F(0), F(0)))
    else:
        zero = None
    for _ in range(rng.randint(1, 4)):
        obj = _conditional(rng, used)
        ante = zero if zero is not None and rng.random() < 0.5 else obj.antecedent
        cons = {
            "antecedent": ante,
            "top": TOP,
            "contradicts": Not(ante),
            "any": obj.consequent,
        }[rng.choice(CONSEQUENT_KINDS)]
        lo, hi = sorted(rng.choice(TENTHS) for _ in range(2))
        lo, hi = {
            "zero": (F(0), F(0)),
            "one": (F(1), F(1)),
            "free": (F(0), F(1)),
            "lo 0": (F(0), hi),
            "hi 1": (lo, F(1)),
            "any": (lo, hi),
        }[rng.choice(INTERVAL_KINDS)]
        entries.append(AssessmentEntry(ConditionalObject(cons, ante), lo, hi))
    query = _conditional(rng, used)
    if rng.random() < 0.5:
        query = ConditionalObject(query.consequent, rng.choice(entries).obj.antecedent)
    return Assessment(tuple(entries)), query, declared


def counted(counts, key, module, name):
    """module.name counts its calls in counts[key] while in use."""
    f = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return f(*args, **kwargs)

    return mock.patch.object(module, name, wrapper)


def traced(fn):
    """fn() with what it took: (pivots, coherence's solve_lp calls and
    deeper levels, as solver_counts.counting() counts them, and the result
    or the raised IncoherentPremises)."""
    with solver_counts.counting() as counts:
        try:
            out = fn()
        except IncoherentPremises as err:
            out = ("incoherent", err.certificate)
    return {k: counts[k] for k in ("pivots", "solves", "levels")}, out


def outcome(res):
    return res.status, res.value, res.solution


def level0_solves(layer, m_row, e_row):
    """The row count of the level-0 layer's region, and (pivots, outcome)
    of its start and of its max-sum, max-m, min-m and Charnes-Cooper solves;
    m_row and e_row are the query's rows."""
    region = layer.region()
    steps = [traced(lambda: outcome(solve_lp([0] * region.n, region)))]
    if region.support() is None:
        return len(region), steps
    solves = [
        (layer.antecedent_mass(range(len(layer.entries))), region, True),
        (m_row, region, True),
        (m_row, region, False),
    ]
    max_m = solve_lp(m_row, region)
    if max_m.value > 0:
        scaled = region.charnes_cooper(max_m)
        solves += [(e_row, scaled, False), (e_row, scaled, True)]
    for objective, rows, maximize in solves:
        steps.append(traced(lambda: outcome(solve_lp(objective, rows, maximize))))
    return len(region), steps


def compare_layers(a, q, atoms):
    """The level-0 solves and the end-to-end answers of the two layers: the
    same points, values and pivots, and never more rows. The layer takes
    the query's rows from truth tables, FullLayer from eval_classical.
    Returns whether the layer skipped a row."""
    layer, _ = coherence._level0(a, atoms, q)
    m_q, e_q = layer.extra
    rows, steps = level0_solves(
        layer, coherence._mass_row(m_q, layer.reps), coherence._mass_row(e_q, layer.reps)
    )
    FullLayer = full_layer(atoms)
    full = FullLayer(layer.entries, layer.tables, layer.domain, layer.extra)
    full_rows, full_steps = level0_solves(full, *q_rows(q, atoms, full))
    assert steps == full_steps
    assert rows <= full_rows
    for fn in (lambda: check_coherence(a, atoms), lambda: propagate(a, q, atoms)):
        with mock.patch.object(coherence, "_Layer", FullLayer):
            full = traced(fn)
        assert traced(fn) == full
    return rows < full_rows


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_implied_rows_change_no_pivot(rng):
    compare_layers(*kinded_problem(rng))


def test_implied_rows_change_no_pivot_seeded():
    """300 seeded problems: most skip a row, both verdicts occur, and some
    descend a zero layer."""
    rng = random.Random("implied-rows")
    skipped = coherent = descents = 0
    for _ in range(300):
        a, q, atoms = kinded_problem(rng)
        skipped += compare_layers(a, q, atoms)
        coherent += isinstance(check_coherence(a, atoms), Coherent)
        descents += len(layers_by_fixpoint(a, atoms)[0]) > 1
    counts = skipped, coherent, descents
    assert skipped >= 200 and 50 <= coherent <= 250 and descents >= 20, counts


def test_slack_has_the_rational_rows_unit():
    """p(C) in [3/5, 9/10] over A, B, C and the query (B and C | A). With a
    unit slack on the int rows (3, -2) and (-9, 1), the maximum of the
    Charnes-Cooper program takes 2 pivots to another vertex; with slack
    coefficients 5 and 10, the rational rows' unit, it takes the same 3
    pivots as FullLayer."""
    C = Atom("C")
    a = Assessment((AssessmentEntry(ConditionalObject(C), F(3, 5), F(9, 10)),))
    q = ConditionalObject(And(Atom("B"), C), Atom("A"))
    layer, _ = coherence._level0(a, ("A", "B", "C"))
    check_layer(layer, ("A", "B", "C"))
    assert (layer.reps, layer.homogeneous) == ([0, 1], [([3, -2], 5), ([-9, 1], 10)])
    compare_layers(a, q, ("A", "B", "C"))


def test_chain_level0_has_seven_rows():
    """p(A0) >= 9/10 and p(A_{i+1} | A_i) >= 9/10 over 6 atoms: one lower row
    per entry and the row sum(x) == 1; no upper row, as hi = 1."""
    names = [f"A{i}" for i in range(6)]
    entries = [AssessmentEntry(ConditionalObject(Atom("A0")), F(9, 10), F(1))] + [
        AssessmentEntry(ConditionalObject(Atom(b), Atom(a)), F(9, 10), F(1))
        for a, b in zip(names, names[1:])
    ]
    layer, region = coherence._level0(Assessment(tuple(entries)), names)
    assert len(layer.homogeneous) == 6
    assert len(region) == 7
    full = full_layer(names)(layer.entries, layer.tables, layer.domain)
    assert len(full.region()) == 13


def test_free_entry_adds_no_row_but_descends():
    """p(A) = 0 and p(B | A) in [0, 1]: p(A) = 0 pins the worlds where A
    holds, so the level-0 layer has one column, where A fails, and no row.
    The free entry has no antecedent column left there, so it is forced
    with no solve (the one solve is the witness's), and its antecedent
    carries it into the level-1 layer, where it builds no row either."""
    zero = AssessmentEntry(ConditionalObject(Atom("A")), F(0), F(0))
    free = AssessmentEntry(ConditionalObject(Atom("B"), Atom("A")), F(0), F(1))
    layers = []

    class Recorded(coherence._Layer):
        def __init__(self, entries, tables, domain, extra=()):
            super().__init__(entries, tables, domain, extra)
            layers.append(self)

    with mock.patch.object(coherence, "_Layer", Recorded):
        counts, verdict = traced(lambda: check_coherence(Assessment((zero, free)), ("A", "B")))
    assert isinstance(verdict, Coherent)
    assert counts == {"pivots": 2, "solves": 1, "levels": 1}
    level0, level1 = layers
    for layer in layers:
        check_layer(layer, ("A", "B"))
    assert worlds_of(level0.domain) == [0, 1, 2, 3] and level0.reps == [0]
    assert level0.homogeneous == [] and level0.m_cols == [1, 0]
    assert len(level0.region()) == 1
    assert level1.entries == [free]
    assert level1.homogeneous == [] and worlds_of(level1.domain) == [2, 3]


# --- merged constituents -----------------------------------------------------
#
# A layer has one column per class of the worlds its tables cannot tell
# apart. Here it is checked against a layer with one column per world, on
# assessments padded with declared atoms nothing uses, so that most columns
# hold many worlds.

PADDED_NAMES = tuple("ABCDEFGH")


class WorldLayer(ReferenceLayer):
    """The layer with one column per world its presolve leaves, in world
    order, derived world by world (layer_reference): the presolve is stated
    on the rows, a row with no negative coefficient pins every world where
    it is positive and the rows are found again without the pinned worlds
    until none is pinned, and a row is built where it has a positive
    coefficient, as _Layer builds them."""

    merge = False


def padded_problem(rng):
    """(assessment, query, declared atoms): problem_over 1-5 atoms, with 0-3
    more declared atoms that nothing uses, at random places in the order."""
    n_used, n_pad = rng.randint(1, 5), rng.randint(0, 3)
    declared = PADDED_NAMES[: n_used + n_pad]
    a, q = problem_over(rng, sorted(rng.sample(declared, n_used)))
    return a, q, declared


def compare_merged(a, q, atoms):
    """check_coherence and propagate with merged columns and with
    WorldLayer: the same verdicts, levels, witnesses (expanded to the
    worlds), bounds, pivots, solves and deeper levels. Where the level-0
    layer of propagate has at most 4 columns, its Charnes-Cooper bounds are
    also checked by vertex enumeration over the columns' lowest worlds.
    Returns what the problem reached."""
    outcomes = []
    for fn in (lambda: check_coherence(a, atoms), lambda: propagate(a, q, atoms)):
        merged = traced(fn)
        with mock.patch.object(coherence, "_Layer", WorldLayer):
            assert traced(fn) == merged
        outcomes.append(merged)
    (check_counts, verdict), (eval_counts, _) = outcomes
    layer, region = coherence._level0(a, atoms, q)
    # WorldLayer reads the tables it is given, so they are read here with
    # eval_classical, over every declared atom, padding included
    assert (layer.tables, layer.extra) == (eval_tables(a.entries, atoms), obj_tables(q, atoms))
    reached = set()
    if len(layer.reps) < 1 << len(atoms):
        reached.add("merged")
    if len(a.atoms() | q.atoms()) < len(atoms):
        reached.add("padded")
    if isinstance(verdict, Incoherent):
        reached.add("incoherent")
        return reached
    assert witness_satisfies(a.entries, constituents(atoms), verdict.witness)
    if check_counts["levels"] or eval_counts["levels"]:
        reached.add("descent")
    if len(layer.reps) <= 4 and structural_bounds(q) is None:
        m_row, e_row = (coherence._mass_row(t, layer.reps) for t in layer.extra)
        max_m = solve_lp(m_row, region)
        if max_m.value > 0:
            dicts = constituents(atoms)
            want = vertex_bounds(layer.entries, [dicts[w] for w in layer.reps], q)
            assert warm_bounds(region, max_m, e_row) == want
            reached.add("vertex oracle")
    return reached


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_merged_columns_take_the_per_world_path(rng):
    compare_merged(*padded_problem(rng))


def test_merged_columns_take_the_per_world_path_seeded():
    """300 seeded problems, which reach every case the comparison is for."""
    reached = dict.fromkeys(("merged", "padded", "incoherent", "descent", "vertex oracle"), 0)
    rng = random.Random("merged-columns")
    for _ in range(300):
        for key in compare_merged(*padded_problem(rng)):
            reached[key] += 1
    assert min(reached.values()) >= 20, reached


def test_padded_modus_ponens_has_four_columns():
    """p(C | A) >= 9/10 and p(A) >= 9/10 over A, C and 14 atoms nothing
    uses, query C: the level-0 layer has 4 columns (A and C, A and not C,
    and not A split by the query's C), not 65536, and the answers are those
    over A and C alone, the witness's mass on the first world where A and C
    hold."""
    A, C = Atom("A"), Atom("C")
    names = ["A", "C"] + [f"P{i}" for i in range(14)]
    a = Assessment(
        (
            AssessmentEntry(ConditionalObject(C, A), F(9, 10), F(1)),
            AssessmentEntry(ConditionalObject(A), F(9, 10), F(1)),
        )
    )
    q = ConditionalObject(C)
    layer, _ = coherence._level0(a, names, q)
    assert len(layer.reps) <= 4
    assert propagate(a, q, names) == propagate(a, q, ["A", "C"]) == Bounds(F(81, 100), F(1))
    assert check_coherence(a, ["A", "C"]).witness == (0, 0, 0, 1)
    witness = check_coherence(a, names).witness
    assert len(witness) == 1 << 16
    assert [w for w, x in enumerate(witness) if x] == [3 << 14] and witness[3 << 14] == 1


def test_level0_tables_settle_what_structural_bounds_settles():
    """propagate reads the [0, 0] and [1, 1] cases off the level-0 query
    tables, over every declared atom; structural_bounds(q) reads them over
    q's own atoms. They agree with 0-3 unused atoms, on queries of which
    about half are settled by logic, some over no atom at all."""
    rng = random.Random("settled-queries")
    settled = {None: 0, Bounds(F(0), F(0)): 0, Bounds(F(1), F(1)): 0}
    for _ in range(300):
        a, q, atoms = padded_problem(rng)
        f, g = q.antecedent, q.consequent
        q = rng.choice(
            (
                q,
                q,
                ConditionalObject(f, f),
                ConditionalObject(Not(f), f),
                ConditionalObject(Or(g, Not(g)), f),
                ConditionalObject(And(g, Not(g)), f),
            )
        )
        layer, _ = coherence._level0(a, atoms, q)
        want = structural_bounds(q)
        assert coherence._settled(*layer.extra) == want
        settled[want] += 1
    assert min(settled.values()) >= 50, settled


def test_pinned_layer_forces_what_the_pinned_row_forces():
    """Where the bounds are not [0, 1], propagate builds the layer of the
    worlds where q's antecedent fails; as x >= 0, its points are the
    layer's points with m_q = 0. Its start finds no feasible point exactly
    when min m, solved here, is positive, and otherwise the entries it
    forces to zero are those the plain procedure forces with the row m_q =
    0 added to the layer's rows."""
    rng = random.Random("pinned-layer")
    reached = nonempty = positive = 0
    for _ in range(400):
        a, q, atoms = random_problem(rng)
        if isinstance(check_coherence(a, atoms), Incoherent):
            continue
        layer, region = coherence._level0(a, atoms, q)
        m_q = layer.extra[0]
        m_row = coherence._mass_row(m_q, layer.reps)
        pinned = coherence._Layer(layer.entries, layer.tables, layer.domain ^ (layer.domain & m_q))
        pinned_region = pinned.region()
        min_m = solve_lp(m_row, region, maximize=False)
        assert (pinned_region.support() is None) == (min_m.value > 0)
        if min_m.value:
            positive += 1
            continue
        n = len(layer.reps)
        rows = rows_region([([1] * n, EQ, 1)] + layer_rows(layer) + [(m_row, EQ, 0)], n)
        forced = forced_by_fixpoint(layer, rows)
        assert coherence._forced_zero(pinned, pinned_region) == forced
        assert forced_by_fixpoint(pinned, pinned_region) == forced
        reached += 1
        nonempty += bool(forced)
    assert reached >= 100 and nonempty >= 50 and positive >= 50, (reached, nonempty, positive)


# --- presolve -----------------------------------------------------------------
#
# A row with rhs 0 and no negative coefficient pins every class where it is
# positive at zero mass, and a layer drops those classes. Here the dropped
# classes and the entries left with no antecedent column are checked by
# vertex enumeration, which uses no solver, and the answers against a layer
# that keeps every class, on assessments full of [0, 0] and [1, 1] premises.


class KeptLayer(ReferenceLayer):
    """The layer without presolve: every class of its domain is a column,
    derived world by world (layer_reference), with each entry's rows lo*m -
    e <= 0 and e - hi*m <= 0 where they have a positive coefficient, in int
    form (int_row), as _Layer builds them."""

    presolve = False


def small_kinded_problems(seed, count):
    """count seeded kinded_problem sets that declare at most 3 atoms."""
    rng = random.Random(seed)
    problems = []
    while len(problems) < count:
        a, q, atoms = kinded_problem(rng)
        if len(atoms) <= 3:
            problems.append((a, q, atoms))
    return problems


def oracle_classes(entries, atoms):
    """The worlds of constituents(atoms) grouped by what holds at them, with
    eval_classical: per entry, its antecedent, and antecedent and
    consequent. Lists of world indices, ordered by their lowest world."""
    groups = {}
    for w, v in enumerate(constituents(atoms)):
        key = tuple(
            (eval_classical(ante, v), eval_classical(And(ante, cons), v))
            for ante, cons in ((e.obj.antecedent, e.obj.consequent) for e in entries)
        )
        groups.setdefault(key, []).append(w)
    return list(groups.values())


def check_presolve(a, q, atoms):
    """The level-0 layer of check_coherence against vertex enumeration, and
    check_coherence and propagate against KeptLayer. Returns whether the
    level-0 layer dropped a class. The worlds it keeps are those of the
    reference it is checked against (check_layer).

    The vertices are those of the level-0 polytope over one world per
    oracle class (assessment_polytope_rows), whose points are the world
    polytope's points summed class by class: a class has mass 0 at every
    vertex, and so at every point, exactly when each of its worlds has mass
    0 at every point of the world polytope. The ">= 0" rows with no
    negative coefficient are left out: x >= 0 implies them, and one is
    active only where the x >= 0 rows of its positive columns are, which
    span it, so leaving it out changes no vertex."""
    layer, _ = coherence._level0(a, atoms)
    kept = worlds_of(check_layer(layer, atoms)["live"])
    classes = oracle_classes(a.entries, atoms)
    dicts = constituents(atoms)
    eqs, ineqs = assessment_polytope_rows(a.entries, [dicts[ws[0]] for ws in classes])
    vertices = enumerate_vertices(
        len(classes), eqs, [(row, rhs) for row, rhs in ineqs if any(v < 0 for v in row)]
    )
    for k, ws in enumerate(classes):
        if set(ws) - set(kept):
            assert all(x[k] == 0 for x in vertices), f"a dropped world of {ws} has mass"
    for entry, m_cols in zip(a.entries, layer.m_cols):
        if not m_cols:
            ante = [eval_classical(entry.obj.antecedent, dicts[ws[0]]) for ws in classes]
            assert all(not any(v for v, h in zip(x, ante) if h) for x in vertices)

    def answers(kept_every_class):
        layer_class = KeptLayer if kept_every_class else coherence._Layer
        with mock.patch.object(coherence, "_Layer", layer_class):
            verdict = check_coherence(a, atoms)
            try:
                bounds = propagate(a, q, atoms)
                evaluated = bounds, classify(bounds)
            except IncoherentPremises as err:
                evaluated = err.certificate
        if isinstance(verdict, Coherent):
            assert witness_satisfies(a.entries, dicts, verdict.witness)
            verdict = Coherent
        return verdict, evaluated

    assert answers(False) == answers(True)
    return len(layer.reps) < len(classes)


def test_presolve_drops_only_zero_mass_and_keeps_the_answers():
    """300 seeded sets over at most 3 atoms; presolve fires in at least 50,
    at level 0."""
    fired = sum(check_presolve(*problem) for problem in small_kinded_problems("presolve", 300))
    assert fired >= 50, fired


def test_presolve_pivots_and_solves():
    """check_coherence and propagate on 300 seeded kinded_problem sets over
    at most 3 atoms: the pivots, coherence's solves and deeper levels they
    take in all. Before the presolve, check_coherence took 763 pivots and
    306 solves and propagate 782 pivots and 475 solves, at the same
    levels. Before propagate stopped at bounds of [0, 1], it took 379
    pivots, 337 solves and 144 levels; the levels it visits fall with the
    descents it skips, and check_coherence's do not move. Before the pinned
    layer's start replaced min m, it took 337 pivots and 239 solves at the
    same levels, before it read the sides of the bounds off the crash
    columns and the max m vertex, 333 pivots and 216 solves, while it
    read them off the max m vertex too, 278 pivots and 58 solves, and
    while a layer whose columns all lie in q's antecedent solved max m,
    59 solves."""
    totals = {}
    for a, q, atoms in small_kinded_problems("presolve-counts", 300):
        for name, fn in (
            ("check", lambda: check_coherence(a, atoms)),
            ("propagate", lambda: propagate(a, q, atoms)),
        ):
            counts, _ = traced(fn)
            totals[name] = {k: totals.get(name, {}).get(k, 0) + v for k, v in counts.items()}
    assert totals == {
        "check": {"pivots": 285, "solves": 194, "levels": 124},
        "propagate": {"pivots": 278, "solves": 42, "levels": 131},
    }


# --- the stop at [0, 1] -------------------------------------------------------
#
# propagate returns as soon as a layer's own interval is [0, 1], with no
# pinned layer and no descent, and takes a deeper layer's bounds as they
# are, unjoined. Here it is checked against propagate_by_rebuilding,
# which descends wherever min m = 0 and joins what it finds.


def compare_stop(a, q, atoms):
    """propagate against propagate_by_rebuilding on a coherent problem whose
    query logic does not settle: the same bounds, and each rebuilt layer's
    own interval holds the one of the layer above it. Returns (the descents
    propagate made, the rebuilt layers' own intervals, from the top down).

    The intervals nest because a point of a layer with m_q > 0, restricted
    to the next layer's worlds and rescaled, is a point of the next layer
    with the same e_q / m_q: those worlds hold q's antecedent and those of
    the next layer's entries, whose rows are homogeneous. So the join of
    the intervals found so far is the last one, and no problem has a join
    of [0, 1] where no layer's own interval is [0, 1]."""
    counts = {"descents": 0}
    with counted(counts, "descents", coherence, "_descend"):
        got = propagate(a, q, atoms)
    layer, region = coherence._level0(a, atoms, q)
    levels = []
    assert got == propagate_by_rebuilding(layer, region, q, atoms, levels)
    own = [b for b in levels if b is not None]
    assert all(lo <= up_lo and up_hi <= hi for (up_lo, up_hi), (lo, hi) in zip(own, own[1:]))
    return counts["descents"], levels


def test_stop_at_0_1_loses_nothing():
    """300 seeded coherent kinded_problem sets with a query that logic does
    not settle: the stop skips a descent that the rebuilt procedure makes in
    at least 50 of them, and in some below level 0, after a descent."""
    rng = random.Random("join-stop")
    problems = skipped = below = 0
    while problems < 300:
        a, q, atoms = kinded_problem(rng)
        if structural_bounds(q) is not None or isinstance(check_coherence(a, atoms), Incoherent):
            continue
        problems += 1
        descents, levels = compare_stop(a, q, atoms)
        if descents < len(levels) - 1:
            skipped += 1
            below += descents > 0
    assert skipped >= 50 and below >= 5, (skipped, below)


def test_stop_below_level_0():
    """p(A or B) = 0 and p(C | A or B) >= 9/10, query (C | A): level 0 gives
    A no mass, so propagate descends to the layer over A or B, whose own
    interval is [0, 1] while B alone may carry its mass (min m = 0). There
    it stops; the rebuilt procedure descends once more, to [0, 1] again."""
    A, B, C = Atom("A"), Atom("B"), Atom("C")
    a = Assessment(
        (
            AssessmentEntry(ConditionalObject(Or(A, B)), F(0), F(0)),
            AssessmentEntry(ConditionalObject(C, Or(A, B)), F(9, 10), F(1)),
        )
    )
    q = ConditionalObject(C, A)
    assert compare_stop(a, q, ("A", "B", "C")) == (1, [None, (0, 1), (0, 1)])
    assert propagate(a, q, ("A", "B", "C")) == Bounds(F(0), F(1))


def test_only_bounds_and_witnesses_build_fractions():
    """The forced-zero fixpoint and the max m test read a solve's int
    numerator, so on 300 seeded problems solve_lp builds a Fraction only
    for a Charnes-Cooper bound, one per side solved (two per program while
    both sides were always solved), and for a witness, one per positive
    mass. The other solves, those that are neither a side nor a coherent
    check's witness, build none: 185 of 567. They were 242 of 593 while a
    layer whose columns all lie in q's antecedent solved max m, and 305
    of 850 while both sides were always solved."""
    counts = {"fractions": 0, "sides": 0, "solves": 0, "witnesses": 0}
    rng = random.Random("fraction-free")
    with counted(counts, "fractions", linprog, "Fraction"), counted(
        counts, "sides", coherence, "_ratio_bound"
    ), counted(counts, "solves", coherence, "solve_lp"):
        for _ in range(300):
            a, q, atoms = random_problem(rng)
            before = counts["fractions"]
            verdict = check_coherence(a, atoms)
            witness = 0 if isinstance(verdict, Incoherent) else sum(1 for x in verdict.witness if x)
            assert counts["fractions"] - before == witness
            counts["witnesses"] += isinstance(verdict, Coherent)
            before, sides = counts["fractions"], counts["sides"]
            try:
                propagate(a, q, atoms)
            except IncoherentPremises:
                pass
            assert counts["fractions"] - before == counts["sides"] - sides
    assert counts == {"fractions": 539, "sides": 157, "solves": 567, "witnesses": 225}


# --- sides read off feasible points ------------------------------------------
#
# Each crash column alone is a feasible point; one with m_q > 0 and ratio
# e_q / m_q of 0 proves lo = 0 and one with ratio 1 proves hi = 1.
# propagate solves a Charnes-Cooper side only where no such point proves
# it, and the upper side at a layer that descends only where the lower one
# is 0. Here each layer call is checked against the rebuilt bounds and
# against points found with eval_classical's rows.


def layer_calls(fn):
    """fn() with a record per _propagate_layer call: its layer and region,
    the solve_lp calls it made itself (not in a deeper call), the sides it
    solved (_ratio_bound's maximize, in order), whether it descended, and
    the Charnes-Cooper regions it derived and pinned layers it built (the
    layers with no extra tables) itself."""
    calls, stack = [], []
    propagate_layer, solve, ratio_bound, descend = (
        coherence._propagate_layer,
        coherence.solve_lp,
        coherence._ratio_bound,
        coherence._descend,
    )
    derive, build = linprog.Region.charnes_cooper, coherence._Layer.__init__

    def traced_layer(layer, region, q):
        call = {
            "layer": layer,
            "region": region,
            "solves": 0,
            "sides": [],
            "descended": False,
            "derived": 0,
            "pinned": 0,
        }
        calls.append(call)
        stack.append(call)
        try:
            return propagate_layer(layer, region, q)
        finally:
            stack.pop()

    def traced_solve(*args, **kwargs):
        if stack:
            stack[-1]["solves"] += 1
        return solve(*args, **kwargs)

    def traced_bound(scaled, e_row, maximize):
        stack[-1]["sides"].append(maximize)
        return ratio_bound(scaled, e_row, maximize)

    def traced_descend(*args):
        stack[-1]["descended"] = True
        return descend(*args)

    def traced_derive(region, optimum):
        stack[-1]["derived"] += 1
        return derive(region, optimum)

    def traced_build(layer, entries, tables, domain, extra=()):
        if stack and not extra:
            stack[-1]["pinned"] += 1
        build(layer, entries, tables, domain, extra)

    with mock.patch.object(coherence, "_propagate_layer", traced_layer), mock.patch.object(
        coherence, "solve_lp", traced_solve
    ), mock.patch.object(coherence, "_ratio_bound", traced_bound), mock.patch.object(
        coherence, "_descend", traced_descend
    ), mock.patch.object(linprog.Region, "charnes_cooper", traced_derive), mock.patch.object(
        coherence._Layer, "__init__", traced_build
    ):
        out = fn()
    return calls, out


def unit_points(layer, atoms):
    """The columns where all the mass can sit, as a world mask, found with
    eval_classical at each column's representative: every entry is void
    there, true with hi = 1 or false with lo = 0."""
    dicts = constituents(atoms)
    found = 0
    for w in layer.reps:
        v = dicts[w]
        if all(
            not eval_classical(e.obj.antecedent, v)
            or (e.hi == 1 if eval_classical(e.obj.consequent, v) else e.lo == 0)
            for e in layer.entries
        ):
            found |= 1 << w
    return found


def check_sides(a, q, atoms):
    """propagate against propagate_by_rebuilding on one coherent problem,
    and each of its layer calls against the sides feasible points prove.
    Returns the shortcuts it took: "no solve" (a crash column with ratio 0
    and one with ratio 1: [0, 1] with no solve) and "descent" (a layer
    that descends with lo > 0 leaves the upper side unsolved)."""
    calls, got = layer_calls(lambda: propagate(a, q, atoms))
    layer, region = coherence._level0(a, atoms, q)
    assert got == propagate_by_rebuilding(layer, region, q, atoms)
    taken = set()
    m_q, e_q = obj_tables(q, atoms)
    for call in calls:
        layer, region = call["layer"], call["region"]
        m_row, e_row = q_rows(q, atoms, layer)
        assert layer.singles == unit_points(layer, atoms)
        lo_proved, hi_proved = bool(layer.singles & (m_q ^ e_q)), bool(layer.singles & e_q)
        if lo_proved and hi_proved:
            assert call["solves"] == 0 and not call["descended"]
            taken.add("no solve")
            continue
        max_m = solve_lp(m_row, region)
        if max_m.value == 0:
            assert call["sides"] == [] and call["descended"]
            continue
        _, lo, hi = rebuilt_bounds(layer, m_row, e_row)
        assert not lo_proved or lo == 0
        assert not hi_proved or hi == 1
        want = [] if lo_proved else [False]
        if not hi_proved and (lo == 0 or not call["descended"]):
            want.append(True)
        elif not hi_proved:
            taken.add("descent")
        assert call["sides"] == want
        # max m is 1 with no solve where every column lies in q's antecedent
        max_m_solves = 0 if all(m_row) else 1
        assert call["solves"] == max_m_solves + len(want) or call["descended"]
    return taken


def test_sides_read_off_points_keep_the_bounds():
    """300 seeded kinded_problem and 300 random_problem sets, the coherent
    ones whose query logic does not settle: the bounds are the rebuilt
    procedure's, and every side a point proves is the rebuilt side. [0, 1]
    with no solve is taken in over 100 sets; a descent from a layer with
    lo > 0 is rare in these sets, and test_descent_skips_the_upper_side
    has one more."""
    taken = dict.fromkeys(("no solve", "descent"), 0)
    for seed, problem in (("sides-kinds", kinded_problem), ("sides-random", random_problem)):
        rng = random.Random(seed)
        for _ in range(300):
            a, q, atoms = problem(rng)
            if structural_bounds(q) is not None or isinstance(check_coherence(a, atoms), Incoherent):
                continue
            for key in check_sides(a, q, atoms):
                taken[key] += 1
    assert taken["no solve"] >= 100 and taken["descent"] >= 2, taken


def test_descent_skips_the_upper_side():
    """p(C | A) in [9/10, 19/20], query (C | A): no crash column holds A,
    so no point proves a side. Level 0 solves max m and lo = 9/10; A may have
    mass 0, so it descends to the layer over A, whose bounds are the
    answer, and its own upper side is never solved. The layer over A lies
    in q's antecedent, so it solves both sides with no max m."""
    A, C = Atom("A"), Atom("C")
    a = Assessment((AssessmentEntry(ConditionalObject(C, A), F(9, 10), F(19, 20)),))
    q = ConditionalObject(C, A)
    assert check_sides(a, q, ("A", "C")) == {"descent"}
    calls, bounds = layer_calls(lambda: propagate(a, q, ("A", "C")))
    assert bounds == Bounds(F(9, 10), F(19, 20))
    assert [(c["solves"], c["sides"], c["descended"]) for c in calls] == [
        (2, [False], True),
        (2, [False, True], False),
    ]


# --- a query whose antecedent covers the layer -----------------------------------
#
# Where every column of a layer lies in q's antecedent, m_q = sum(x) = 1 at
# every point: max m is 1 and the layer's region is its own Charnes-Cooper
# region (Charnes and Cooper 1962, with the denominator sum(x) = 1), so
# propagate solves the sides over it with no max m solve and derives no
# region. Where the layer's whole domain lies in q's antecedent, the pinned
# layer would have no world, and propagate builds none.


def corpus_problems():
    """The corpus grid, every corpus task x reading x THETA_GRID, as (a, q,
    atoms)."""
    from probarg.coherence import ClassificationConfig
    from probarg.corpus import THETA_GRID, builtin_tasks
    from probarg.dsl import lower
    from probarg.events import Interpretation

    return [
        (*lower(task.spec, interp, ClassificationConfig(theta=theta)), task.spec.atoms)
        for task in builtin_tasks()
        for interp in Interpretation
        for theta in THETA_GRID
    ]


def covered_problems():
    """The corpus grid and the random-assess pool's odd items, the
    propagate inputs of tests/solver_counts.py, as (a, q, atoms)."""
    import solver_counts

    workloads = solver_counts.workloads
    problems = corpus_problems()
    for n in workloads.ASSESS_SIZES:
        for index in range(1, workloads.ASSESS_POOL, 2):
            problems.append(workloads.assess_inputs(workloads.assess_item(n, index)))
    return problems


def test_covered_layer_takes_no_max_m_and_no_pinned_layer():
    """On the corpus grid and the pool's odd items, the coherent ones whose
    query logic does not settle: the bounds are the rebuilt procedure's;
    each layer call whose columns all lie in q's antecedent (read with
    eval_classical) makes no max m solve, its solves being its sides, and
    derives no Charnes-Cooper region; each whose domain lies in q's
    antecedent builds no pinned layer. 158 calls are covered, all of them
    with their domain inside q's antecedent, and 109 of those solve a
    side; the other calls build 32 pinned layers."""
    reached = dict.fromkeys(("covered", "covered and solved", "inside", "pinned built"), 0)
    for a, q, atoms in covered_problems():
        if structural_bounds(q) is not None or isinstance(check_coherence(a, atoms), Incoherent):
            continue
        calls, got = layer_calls(lambda: propagate(a, q, atoms))
        layer, region = coherence._level0(a, atoms, q)
        assert got == propagate_by_rebuilding(layer, region, q, atoms)
        dicts = constituents(atoms)
        for call in calls:
            layer = call["layer"]
            m_row, _ = q_rows(q, atoms, layer)
            if all(m_row):
                assert call["derived"] == 0
                assert call["solves"] == len(call["sides"])
                reached["covered"] += 1
                reached["covered and solved"] += bool(call["sides"])
            if all(eval_classical(q.antecedent, dicts[w]) for w in worlds_of(layer.domain)):
                assert call["pinned"] == 0
                reached["inside"] += 1
            reached["pinned built"] += call["pinned"]
    assert reached == {
        "covered": 158,
        "covered and solved": 109,
        "inside": 158,
        "pinned built": 32,
    }


# --- every layer against its contract ---------------------------------------------
#
# The rest of the package reads a layer through its contract: its columns'
# representatives and their world masks, its rows, its crash points, the
# supports it maps to worlds and the region it starts. Here every layer
# check_coherence and propagate build is checked against that contract
# derived world by world (layer_reference), whose region is the one
# general_rows builds and starts its own way over the same rows.


def layers_with_regions(fn, full):
    """fn() with every layer that built a region while it ran, as (kind,
    layer, built): full is the level-0 domain, kind "level 0", "deeper"
    (made by _Layer.deeper) or "pinned" (the layer of the worlds where q's
    antecedent fails), and built the region with its starts and pivots
    (built_region)."""
    made, deeper_layers = [], []
    region, deeper = coherence._Layer.region, coherence._Layer.deeper

    def recorded_region(layer):
        built = built_region(lambda: region(layer))
        if any(layer is d for d in deeper_layers):
            kind = "deeper"
        else:
            kind = "level 0" if layer.domain == full else "pinned"
        made.append((kind, layer, built))
        return built[0]

    def recorded_deeper(layer, *args):
        sub = deeper(layer, *args)
        deeper_layers.append(sub)
        return sub

    with mock.patch.object(coherence._Layer, "region", recorded_region), mock.patch.object(
        coherence._Layer, "deeper", recorded_deeper
    ):
        try:
            fn()
        except IncoherentPremises:
            pass
    return made


def both_calls(problems):
    """Runs for check_layers: each problem through check_coherence and
    propagate."""
    return [
        (
            atoms,
            q,
            [lambda a=a, atoms=atoms: check_coherence(a, atoms), lambda p=(a, q, atoms): propagate(*p)],
        )
        for a, q, atoms in problems
    ]


def check_layers(runs):
    """For each (atoms, q, calls) of runs: every level-0, deeper and pinned
    layer that builds a region while the calls run, and for each layer of
    the propagate path the layer of its worlds where q's antecedent fails,
    built here whether propagate builds it or not, is the layer its
    arguments derive (check_layer); every support the solver maps through
    a layer's worlds() goes to its columns' representatives. Returns the
    counts: layers by kind and regions by how they start ("no column" for
    a layer with no column), "supports" mapped, "every pinned" layer built
    here, and the layers the presolve "shrunk" and "emptied" (of a domain
    that is not empty)."""
    worlds = coherence._Layer.worlds
    kinds = dict.fromkeys(("supports", "every pinned", "shrunk", "emptied"), 0)

    def checked_worlds(layer, support):
        # checked as the solver maps it: a wrong mapping can make the
        # forced-zero fixpoint repeat one solve forever
        got = worlds(layer, support)
        assert got == sum(1 << w for k, w in enumerate(layer.reps) if support >> k & 1)
        kinds["supports"] += 1
        return got

    for atoms, q, calls in runs:
        made = []
        with mock.patch.object(coherence._Layer, "worlds", checked_worlds):
            for call in calls:
                made += layers_with_regions(call, everywhere(atoms))
        pinned = [
            coherence._Layer(layer.entries, layer.tables, layer.domain & ~layer.extra[0])
            for _, layer, _ in made
            if layer.extra
        ]
        kinds["every pinned"] += len(pinned)
        for kind, layer, built in made + [(None, layer, None) for layer in pinned]:
            ref = check_layer(layer, atoms, q, built)
            if kind:
                for key in (kind, ref["start"]):
                    kinds[key] = kinds.get(key, 0) + 1
            kinds["shrunk"] += ref["live"] != layer.domain
            kinds["emptied"] += bool(layer.domain) and not layer.reps
    return kinds


def at_least(kinds, least):
    assert all(kinds.get(k, 0) >= v for k, v in least.items()), kinds


def test_layer_tableau_is_the_rows_tableau():
    """check_coherence and propagate on 300 seeded kinded_problem and 300
    random_problem sets, the 800 random-assess pool items and the chain
    over 3..8 atoms: every layer is the one check_layer derives, and its
    region has the initial tableau, the start, the supports and the row
    count of the general rows' region over its rows. Every kind of layer
    and of start occurs: these inputs build 2812 level-0, 1048 deeper
    and 67 pinned layers' regions, of which 1812 take the crash start,
    756 phase 1 and 16 are found infeasible by phase 1, and
    1343 are of layers with no column (most incoherent sets are emptied
    by the presolve)."""
    workloads = solver_counts.workloads
    problems = []
    for seed, problem in (("tableau-kinds", kinded_problem), ("tableau-random", random_problem)):
        rng = random.Random(seed)
        problems += [problem(rng) for _ in range(300)]
    for n in workloads.ASSESS_SIZES:
        for index in range(workloads.ASSESS_POOL):
            problems.append(workloads.assess_inputs(workloads.assess_item(n, index)))
    problems += [workloads.chain_inputs(n, F(9, 10)) for n in range(3, 9)]
    kinds = check_layers(both_calls(problems))
    at_least(
        kinds,
        {
            "level 0": 2500,
            "deeper": 900,
            "pinned": 50,
            "crash": 1500,
            "phase 1": 600,
            "infeasible": 10,
            "no column": 1200,
        },
    )


def test_world_masks_and_laid_out_starts_match_the_scan():
    """Every layer whose region check_coherence and propagate build on the
    corpus grid, the random-assess pool as tests/solver_counts.py runs it,
    the chain over 3..10 atoms and the interval chain over 6..10, and the
    pinned layer of each layer of the propagate path: its world masks
    (cols, m_cols, singles) are those check_layer derives, its crash points
    those the general rows' crash start scans the tableau for, a crash
    start is laid out with no pivot, each row coprime with a positive basic
    coefficient and rhs >= 0, and every support the solver maps through
    its worlds() goes to its columns' representatives. The runs start
    572 regions by the crash start, 268 by phase 1 and 404 have no
    column; the solver maps 987 supports."""
    workloads = solver_counts.workloads
    runs = [(p[2], p[1], [lambda p=p: propagate(*p)]) for p in corpus_problems()]
    for n in workloads.ASSESS_SIZES:
        for index in range(workloads.ASSESS_POOL):
            a, q, atoms = workloads.assess_inputs(workloads.assess_item(n, index))
            fn = propagate if index % 2 else lambda a, q, atoms: check_coherence(a, atoms)
            runs.append((atoms, q, [lambda fn=fn, a=a, q=q, atoms=atoms: fn(a, q, atoms)]))
    chains = [workloads.chain_inputs(n, solver_counts.CHAIN_THETA) for n in range(3, 11)]
    chains += [solver_counts.interval_chain_inputs(n) for n in range(6, 11)]
    runs += [(atoms, q, [lambda p=(a, q, atoms): propagate(*p)]) for a, q, atoms in chains]
    kinds = check_layers(runs)
    at_least(kinds, {"crash": 500, "phase 1": 250, "no column": 300, "supports": 900})


def test_presolve_on_worlds_matches_class_walking():
    """300 seeded random_problem and 300 kinded_problem sets through
    check_coherence and propagate: every layer they build, and the pinned
    layer of each layer of the propagate path, keeps the live worlds, the
    columns, m_cols and rows that the forcing-row rule, stated on the
    Fraction rows and repeated world by world until it pins no world,
    leaves (check_layer). The sets reach each kind of layer, layers the
    presolve shrinks and layers it empties: 1200 level-0 and 579
    deeper layers, 617 pinned layers built here, 1431 shrunk and
    715 emptied."""
    problems = []
    for seed, problem in (("presolve-worlds", random_problem), ("presolve-kinds", kinded_problem)):
        rng = random.Random(seed)
        problems += [problem(rng) for _ in range(300)]
    kinds = check_layers(both_calls(problems))
    at_least(kinds, dict.fromkeys(("level 0", "deeper", "every pinned", "shrunk", "emptied"), 100))


# --- the answers digest -----------------------------------------------------------

ANSWERS_DIGEST = "234433f210ef5b89dbaef00e732d241fafe544fde96b0c1ae7d087e57141b7cb"


def test_answers_digest_is_pinned():
    """tools/answers_digest.py's one sha256 over the reprs of
    check_coherence and propagate on the 800 random-assess pool items and
    the chain over 3..12 atoms: every bound, witness, level and
    incoherence description there. A change to the solver's path that
    moves a witness (a vertex, not a bound, can move) re-pins it here,
    with the digest before and after in CHANGES.md."""
    path = Path(__file__).resolve().parent.parent / "tools" / "answers_digest.py"
    spec = importlib.util.spec_from_file_location("answers_digest", path)
    answers_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(answers_digest)
    assert answers_digest.digest() == ANSWERS_DIGEST
