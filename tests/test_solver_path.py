"""The solver path against the plain procedure it shortens.

propagate starts the Charnes-Cooper program from the max-m optimum, the
zero-layer procedure tests the supports of points it already has (the
start, the witness, the max-m or min-m solution) before any forced-zero
solve, and where min m = 0 it drops the columns of q's antecedent instead
of adding the row m_q = 0. Here all three are checked against the
procedure without those steps: a Charnes-Cooper region rebuilt from its
rows (phase 1 and all), a forced-zero fixpoint that starts from the max-sum
solve and reads each solution in Fractions, the row m_q = 0, and
feasibility decided by a solve. Inputs are
random assessments over 2-4 declared atoms (1-5 used and 0-3 unused for the
merged columns), some of them unused, with zero-probability premises
(zero-layer descents) and incoherent premise sets.
A layer that builds both premise rows of every entry, implied or not, is the
reference for the rows a layer skips, and a layer with one column per world
the reference for the classes of worlds a layer merges into one column.

The references find what holds at each world with eval_classical over
constituents(), not with the solver's truth tables, so they also check the
tables, the domain of each deeper layer, the objective rows and that every
world of a column agrees on them.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from int_rows import int_row
from oracles import conditional_value, vertex_bounds, witness_satisfies
from probarg import coherence, linprog
from probarg.coherence import (
    Assessment,
    AssessmentEntry,
    Bounds,
    Coherent,
    Incoherent,
    IncoherentPremises,
    check_coherence,
    propagate,
    structural_bounds,
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
)
from probarg.linprog import EQ, Region, solve_lp

NAMES = ("A", "B", "C", "D")
TENTHS = [F(k, 10) for k in range(11)]
WIDEN = (F(0), F(0), F(1, 10), F(1, 4), F(1))


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


def worlds_of(domain):
    """The world indices in a mask, ascending."""
    return [w for w in range(domain.bit_length()) if domain >> w & 1]


def representatives(layer):
    """The lowest world of each of the layer's columns."""
    return [(c & -c).bit_length() - 1 for c in layer.classes]


def by_world(layer, row):
    """A row of the layer, one entry per column, as one entry per world of
    its domain."""
    return [v for w in worlds_of(layer.domain) for c, v in zip(layer.classes, row) if c >> w & 1]


def eval_table(f, atoms):
    """f's truth table over constituents(atoms), world by world."""
    return sum(1 << j for j, v in enumerate(constituents(atoms)) if eval_classical(f, v))


def obj_tables(obj, atoms):
    """A conditional object's (m, e) tables, world by world."""
    return eval_table(obj.antecedent, atoms), eval_table(And(obj.antecedent, obj.consequent), atoms)


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


def event_row(f, atoms, layer):
    """1 on the columns of the layer where f holds, 0 elsewhere; every
    world of a column must agree."""
    dicts = constituents(atoms)
    row = []
    for c in layer.classes:
        held = {eval_classical(f, dicts[w]) for w in worlds_of(c)}
        assert len(held) == 1, f"a column's worlds disagree on {f}"
        row.append(int(held.pop()))
    return row


def q_rows(q, atoms, layer):
    """The m and e rows of the query over the layer's columns."""
    return (
        event_row(q.antecedent, atoms, layer),
        event_row(And(q.antecedent, q.consequent), atoms, layer),
    )


def columns(mask):
    """The column positions in a mask over a layer's columns, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def forced_by_fixpoint(layer, region):
    """The forced-zero set by the max-sum fixpoint alone, without probes."""
    candidates = list(range(len(layer.entries)))
    while candidates:
        res = solve_lp(layer.antecedent_mass(candidates), region)
        assert res.status == "optimal"
        if res.value == 0:
            return candidates
        candidates = [
            i for i in candidates if not any(res.solution[j] for j in columns(layer.m_cols[i]))
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


def rebuilt_bounds(layer, m_row, e_row):
    """min/max of e/m over the layer: the Charnes-Cooper region rebuilt
    from its rows and run through its own phase 1."""
    region = Region(layer.homogeneous + [(m_row, EQ, 1)], len(layer.classes))
    lo = solve_lp(e_row, region, maximize=False)
    hi = solve_lp(e_row, region, maximize=True)
    return region, lo.value, hi.value


def propagate_by_rebuilding(layer, region, q, atoms):
    """Bounds on p(q) over one layer, each Charnes-Cooper region rebuilt
    and each forced set found by the fixpoint alone."""
    m_row, e_row = q_rows(q, atoms, layer)
    max_m = solve_lp(m_row, region)
    if max_m.value == 0:
        forced = forced_by_fixpoint(layer, region)
        return descend_by_rebuilding(layer, forced, q, atoms)
    _, lo, hi = rebuilt_bounds(layer, m_row, e_row)
    if solve_lp(m_row, region, maximize=False).value > 0:
        return Bounds(lo, hi)
    n = len(layer.classes)
    pinned = Region([([1] * n, EQ, 1)] + layer.homogeneous + [(m_row, EQ, 0)], n)
    forced = forced_by_fixpoint(layer, pinned)
    deeper = descend_by_rebuilding(layer, forced, q, atoms)
    return Bounds(min(lo, deeper.lo), max(hi, deeper.hi))


def descend_by_rebuilding(layer, forced, q, atoms):
    entries = [layer.entries[i] for i in forced]
    domain = restrict(
        atoms, layer.domain, [q.antecedent] + [e.obj.antecedent for e in entries]
    )
    sub = coherence._Layer(entries, eval_tables(entries, atoms), domain, obj_tables(q, atoms))
    return propagate_by_rebuilding(sub, sub.region(), q, atoms)


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
            solve_lp([rng.randint(-2, 2) for _ in layer.classes], region).support()
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
    assert coherence._fractional_bounds(region, max_m, e_row) == (lo, hi)
    if len(layer.classes) <= 4:
        dicts = constituents(atoms)
        assert vertex_bounds(layer.entries, [dicts[w] for w in representatives(layer)], q) == (lo, hi)
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
    It takes _Layer's arguments and its columns (_Layer.classes), and reads
    of the tables only the deeper layers' domains (_Layer.deeper)."""
    dicts = constituents(atoms)

    class FullLayer(coherence._Layer):
        def __init__(self, entries, tables, domain, extra=()):
            super().__init__(entries, tables, domain, extra)
            worlds = representatives(self)
            n = len(worlds)
            self.m_cols, self.homogeneous = [], []
            for entry in entries:
                m_cols, lo_row, hi_row = 0, [F(0)] * n, [F(0)] * n
                for k, w in enumerate(worlds):
                    if eval_classical(entry.obj.antecedent, dicts[w]):
                        m_cols |= 1 << k
                        lo_row[k] -= entry.lo
                        hi_row[k] += entry.hi
                        if eval_classical(entry.obj.consequent, dicts[w]):
                            lo_row[k] += 1
                            hi_row[k] -= 1
                self.m_cols.append(m_cols)
                self.homogeneous += [int_row(lo_row, ">=", 0), int_row(hi_row, ">=", 0)]

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


@contextmanager
def patched(module, name, value):
    """module.name is value while in use."""
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def traced(fn):
    """fn() with what it took: (pivots, coherence's solve_lp calls, deeper
    levels, result or raised IncoherentPremises)."""
    counts = {"pivots": 0, "solves": 0, "levels": 0}

    def counting(key, f):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return wrapper

    with patched(linprog, "_pivot", counting("pivots", linprog._pivot)), patched(
        coherence, "solve_lp", counting("solves", coherence.solve_lp)
    ), patched(coherence, "_restrict_worlds", counting("levels", coherence._restrict_worlds)):
        try:
            out = fn()
        except IncoherentPremises as err:
            out = ("incoherent", err.certificate)
    return counts, out


def outcome(res):
    return res.status, res.value, res.solution


def level0_solves(layer, m_row, e_row):
    """The row count of the level-0 layer's region, and (pivots, outcome)
    of its start and of its max-sum, max-m, min-m and Charnes-Cooper solves;
    m_row and e_row are the query's rows."""
    region = layer.region()
    steps = [traced(region.vertex)]
    if region.vertex() is None:
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
        layer, coherence._mass_row(m_q, layer.classes), coherence._mass_row(e_q, layer.classes)
    )
    FullLayer = full_layer(atoms)
    full = FullLayer(layer.entries, layer.tables, layer.domain, layer.extra)
    full_rows, full_steps = level0_solves(full, *q_rows(q, atoms, full))
    assert steps == full_steps
    assert rows <= full_rows
    for fn in (lambda: check_coherence(a, atoms), lambda: propagate(a, q, atoms)):
        with patched(coherence, "_Layer", FullLayer):
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
    rows = [(by_world(layer, row), rel, rhs, k) for row, rel, rhs, k in layer.homogeneous]
    assert rows == [([3, -2] * 4, "<=", 0, 5), ([-9, 1] * 4, "<=", 0, 10)]
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
    """p(A) = 0 and p(B | A) in [0, 1]: the second entry builds no row at
    level 0, and its antecedent, forced to zero there, carries it into the
    level-1 layer."""
    zero = AssessmentEntry(ConditionalObject(Atom("A")), F(0), F(0))
    free = AssessmentEntry(ConditionalObject(Atom("B"), Atom("A")), F(0), F(1))
    layers = []

    class Recorded(coherence._Layer):
        def __init__(self, entries, tables, domain, extra=()):
            super().__init__(entries, tables, domain, extra)
            layers.append(self)

    with patched(coherence, "_Layer", Recorded):
        verdict = check_coherence(Assessment((zero, free)), ("A", "B"))
    assert isinstance(verdict, Coherent)
    level0, level1 = layers
    assert len(level0.homogeneous) == 1
    assert level0.m_cols[1] and len(level0.region()) == 2
    assert level1.entries == [free]
    assert level1.homogeneous == [] and worlds_of(level1.domain) == [2, 3]


# --- merged constituents -----------------------------------------------------
#
# A layer has one column per class of the worlds its tables cannot tell
# apart. Here it is checked against a layer with one column per world, on
# assessments padded with declared atoms nothing uses, so that most columns
# hold many worlds.

PADDED_NAMES = tuple("ABCDEFGH")


def world_layer(atoms):
    """WorldLayer over the declared atoms: the layer with one column per
    world of its domain, in world order, and its premise rows found world by
    world in Fractions with eval_classical over constituents(atoms), built
    where they have a positive coefficient, as _Layer builds them, and given
    to linprog in int form (int_row). It takes _Layer's arguments and reads
    of the tables only the deeper layers' domains (_Layer.deeper)."""
    dicts = constituents(atoms)

    class WorldLayer(coherence._Layer):
        def __init__(self, entries, tables, domain, extra=()):
            worlds = worlds_of(domain)
            n = len(worlds)
            self.entries, self.tables, self.domain, self.extra = entries, tables, domain, extra
            self.classes = [1 << w for w in worlds]
            self.m_cols, self.homogeneous = [], []
            for entry in entries:
                m_cols, lo_row, hi_row = 0, [F(0)] * n, [F(0)] * n
                for k, w in enumerate(worlds):
                    if eval_classical(entry.obj.antecedent, dicts[w]):
                        m_cols |= 1 << k
                        lo_row[k] += entry.lo
                        hi_row[k] -= entry.hi
                        if eval_classical(entry.obj.consequent, dicts[w]):
                            lo_row[k] -= 1
                            hi_row[k] += 1
                self.m_cols.append(m_cols)
                self.homogeneous += [
                    int_row(row, "<=", 0) for row in (lo_row, hi_row) if any(v > 0 for v in row)
                ]

    return WorldLayer


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
    WorldLayer = world_layer(atoms)
    outcomes = []
    for fn in (lambda: check_coherence(a, atoms), lambda: propagate(a, q, atoms)):
        merged = traced(fn)
        with patched(coherence, "_Layer", WorldLayer):
            assert traced(fn) == merged
        outcomes.append(merged)
    (check_counts, verdict), (eval_counts, _) = outcomes
    layer, region = coherence._level0(a, atoms, q)
    reached = set()
    if len(layer.classes) < 1 << len(atoms):
        reached.add("merged")
    if len(a.atoms() | q.atoms()) < len(atoms):
        reached.add("padded")
    if isinstance(verdict, Incoherent):
        reached.add("incoherent")
        return reached
    assert witness_satisfies(a.entries, constituents(atoms), verdict.witness)
    if check_counts["levels"] or eval_counts["levels"]:
        reached.add("descent")
    if len(layer.classes) <= 4 and structural_bounds(q) is None:
        m_row, e_row = (coherence._mass_row(t, layer.classes) for t in layer.extra)
        max_m = solve_lp(m_row, region)
        if max_m.value > 0:
            dicts = constituents(atoms)
            want = vertex_bounds(layer.entries, [dicts[w] for w in representatives(layer)], q)
            assert coherence._fractional_bounds(region, max_m, e_row) == want
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
    assert len(layer.classes) <= 4
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
    """Where min m = 0, propagate finds the entries forced to zero with m_q
    = 0 over the layer of the worlds where q's antecedent fails, probed by
    min m's support; the plain procedure adds the row m_q = 0 to the
    layer's rows. The new layer's columns are the layer's columns outside
    m_q, in order, and the forced sets are the same."""
    rng = random.Random("pinned-layer")
    reached = nonempty = 0
    for _ in range(400):
        a, q, atoms = random_problem(rng)
        if isinstance(check_coherence(a, atoms), Incoherent):
            continue
        layer, region = coherence._level0(a, atoms, q)
        m_q = layer.extra[0]
        m_row = coherence._mass_row(m_q, layer.classes)
        min_m = solve_lp(m_row, region, maximize=False)
        if min_m.value:
            continue
        n = len(layer.classes)
        rows = Region([([1] * n, EQ, 1)] + layer.homogeneous + [(m_row, EQ, 0)], n)
        pinned = coherence._Layer(layer.entries, layer.tables, layer.domain ^ (layer.domain & m_q))
        assert pinned.classes == [c for c in layer.classes if not c & m_q]
        probe = coherence._outside(min_m.support(), layer.classes, m_q)
        assert probe == sum(
            1 << k for k, c in enumerate(pinned.classes) if min_m.solution[layer.classes.index(c)]
        )
        forced = forced_by_fixpoint(layer, rows)
        assert coherence._forced_zero(pinned, pinned.region(), [probe]) == forced
        assert forced_by_fixpoint(pinned, pinned.region()) == forced
        reached += 1
        nonempty += bool(forced)
    assert reached >= 100 and nonempty >= 50, (reached, nonempty)
