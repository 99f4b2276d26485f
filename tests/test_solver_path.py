"""The solver path against the plain procedure it shortens.

propagate starts the Charnes-Cooper program from the max-m optimum, and the
zero-layer procedure tests points it already has (the phase-1 vertex, the
witness, the min-m solution) before any forced-zero solve. Here both are
checked against the procedure without those steps: a Charnes-Cooper region
rebuilt from its rows (phase 1 and all), a forced-zero fixpoint that starts
from the max-sum solve, and feasibility decided by a solve. Inputs are
random assessments over 2-4 declared atoms, some of them unused, with
zero-probability premises (zero-layer descents) and incoherent premise sets.
A layer that builds both premise rows of every entry, implied or not, is the
reference for the rows a layer skips.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import conditional_value, vertex_bounds
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
    """(assessment, query, declared atoms). One or two declared atoms go
    unused a third of the time. The intervals hold the values of a sparse
    random mass vector; a conditional whose antecedent has no mass there
    gets any value. Nearly half the sets pin an event to probability 0 and
    condition premises (and often the query) on it, which sends them to a
    deeper layer. A quarter have one interval drawn at random instead,
    which is often incoherent."""
    declared = NAMES[: rng.randint(2, 4)]
    pad = rng.randint(1, min(2, len(declared) - 1)) if rng.random() < 1 / 3 else 0
    used = sorted(rng.sample(declared, len(declared) - pad))
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
    return Assessment(tuple(entries)), query, declared


def forced_by_fixpoint(layer, region):
    """The forced-zero set by the max-sum fixpoint alone, without probes."""
    candidates = list(range(len(layer.entries)))
    while candidates:
        res = solve_lp(layer.antecedent_mass(candidates), region)
        assert res.status == "optimal"
        if res.value == 0:
            return candidates
        candidates = [
            i for i in candidates if not any(res.solution[j] for j in layer.m_idx[i])
        ]
    return candidates


def layers_by_fixpoint(a, atoms):
    """Every layer of the zero-layer procedure with its forced set, and the
    level that fails (None when coherent). A max-sum solve decides each
    layer's feasibility."""
    entries, worlds = list(a.entries), constituents(atoms)
    layers = []
    while True:
        layer = coherence._Layer(entries, worlds)
        region = layer.region()
        if solve_lp(layer.antecedent_mass(range(len(entries))), region).status == "infeasible":
            return layers, len(layers)
        forced = forced_by_fixpoint(layer, region)
        layers.append((layer, region, forced))
        if not forced:
            return layers, None
        entries = [entries[i] for i in forced]
        worlds = coherence._restrict_worlds(worlds, [e.obj.antecedent for e in entries])


def rebuilt_bounds(layer, m_row, e_row):
    """min/max of e/m over the layer: the Charnes-Cooper region rebuilt
    from its rows and run through its own phase 1."""
    region = Region(layer.homogeneous + [(m_row, EQ, 1)], len(layer.worlds))
    lo = solve_lp(e_row, region, maximize=False)
    hi = solve_lp(e_row, region, maximize=True)
    return region, lo.value, hi.value


def propagate_by_rebuilding(layer, region, q):
    """Bounds on p(q) over one layer, each Charnes-Cooper region rebuilt
    and each forced set found by the fixpoint alone."""
    m_row = coherence._mass_row(q, layer.worlds)
    e_row = [
        1 if m and coherence.eval_classical(q.consequent, v) else 0
        for m, v in zip(m_row, layer.worlds)
    ]
    max_m = solve_lp(m_row, region)
    if max_m.value == 0:
        return descend_by_rebuilding(layer, forced_by_fixpoint(layer, region), q)
    _, lo, hi = rebuilt_bounds(layer, m_row, e_row)
    if solve_lp(m_row, region, maximize=False).value > 0:
        return Bounds(lo, hi)
    forced = forced_by_fixpoint(layer, layer.region((m_row, EQ, 0)))
    deeper = descend_by_rebuilding(layer, forced, q)
    return Bounds(min(lo, deeper.lo), max(hi, deeper.hi))


def descend_by_rebuilding(layer, forced, q):
    entries = [layer.entries[i] for i in forced]
    worlds = coherence._restrict_worlds(
        layer.worlds, [q.antecedent] + [e.obj.antecedent for e in entries]
    )
    sub = coherence._Layer(entries, worlds)
    return propagate_by_rebuilding(sub, sub.region(), q)


def check_problem(a, q, atoms, rng):
    """Compare the solver path with the plain procedure on one problem; rng
    picks extra feasible points to try first. Returns what the problem
    reached: "incoherent", "incoherent deeper", "descent", "vertex oracle"."""
    reached = set()
    layers, failed = layers_by_fixpoint(a, atoms)

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
            solve_lp([rng.randint(-2, 2) for _ in layer.worlds], region).solution
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
    assert propagate(a, q, atoms) == propagate_by_rebuilding(layer, region, q)
    m_row = coherence._mass_row(q, layer.worlds)
    max_m = solve_lp(m_row, region)
    if max_m.value == 0:
        return reached
    e_row = [
        1 if m and coherence.eval_classical(q.consequent, v) else 0
        for m, v in zip(m_row, layer.worlds)
    ]
    derived = region.charnes_cooper(max_m)
    rebuilt, lo, hi = rebuilt_bounds(layer, m_row, e_row)
    assert (len(derived), derived.n) == (len(rebuilt), rebuilt.n)
    assert coherence._fractional_bounds(region, max_m, e_row) == (lo, hi)
    if len(layer.worlds) <= 4:
        assert vertex_bounds(layer.entries, layer.worlds, q) == (lo, hi)
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
# A layer builds lo*m <= e only when lo > 0 and e <= hi*m only when hi < 1;
# x >= 0 implies the rows it skips. Here it is checked against a layer that
# builds both rows for every entry, on assessments full of implied rows.


class FullLayer(coherence._Layer):
    """The layer with both rows lo*m <= e <= hi*m for every entry, implied
    or not."""

    def __init__(self, entries, world_list):
        super().__init__(entries, world_list)
        n = len(world_list)
        self.homogeneous = []
        for entry, m_idx in zip(entries, self.m_idx):
            lo_row, hi_row = [F(0)] * n, [F(0)] * n
            for j in m_idx:
                lo_row[j] -= entry.lo
                hi_row[j] += entry.hi
                if eval_classical(entry.obj.consequent, world_list[j]):
                    lo_row[j] += 1
                    hi_row[j] -= 1
            self.homogeneous += [(lo_row, ">=", 0), (hi_row, ">=", 0)]


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
    """fn() with its pivot count: (pivots, result or raised exception)."""
    count = 0
    pivot = linprog._pivot

    def counted(*args):
        nonlocal count
        count += 1
        return pivot(*args)

    with patched(linprog, "_pivot", counted):
        try:
            out = fn()
        except IncoherentPremises as err:
            out = ("incoherent", err.certificate)
    return count, out


def outcome(res):
    return res.status, res.value, res.solution


def level0_solves(kind, a, q, atoms):
    """The row count of the kind-built level-0 region, and (pivots, outcome)
    of its start and of its max-sum, max-m, min-m and Charnes-Cooper solves."""
    worlds = constituents(atoms)
    layer = kind(list(a.entries), worlds)
    region = layer.region()
    steps = [traced(region.vertex)]
    if region.vertex() is None:
        return len(region), steps
    m_row = coherence._mass_row(q, worlds)
    solves = [
        (layer.antecedent_mass(range(len(layer.entries))), region, True),
        (m_row, region, True),
        (m_row, region, False),
    ]
    max_m = solve_lp(m_row, region)
    if max_m.value > 0:
        e_row = [
            1 if m and eval_classical(q.consequent, v) else 0
            for m, v in zip(m_row, worlds)
        ]
        scaled = region.charnes_cooper(max_m)
        solves += [(e_row, scaled, False), (e_row, scaled, True)]
    for objective, rows, maximize in solves:
        steps.append(traced(lambda: outcome(solve_lp(objective, rows, maximize))))
    return len(region), steps


def compare_layers(a, q, atoms):
    """The level-0 solves and the end-to-end answers of the two layers: the
    same points, values and pivots, and never more rows. Returns whether
    the layer skipped a row."""
    rows, steps = level0_solves(coherence._Layer, a, q, atoms)
    full_rows, full_steps = level0_solves(FullLayer, a, q, atoms)
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
    assert len(FullLayer(layer.entries, layer.worlds).region()) == 13


def test_free_entry_adds_no_row_but_descends():
    """p(A) = 0 and p(B | A) in [0, 1]: the second entry builds no row at
    level 0, and its antecedent, forced to zero there, carries it into the
    level-1 layer."""
    zero = AssessmentEntry(ConditionalObject(Atom("A")), F(0), F(0))
    free = AssessmentEntry(ConditionalObject(Atom("B"), Atom("A")), F(0), F(1))
    layers = []

    class Recorded(coherence._Layer):
        def __init__(self, entries, world_list):
            super().__init__(entries, world_list)
            layers.append(self)

    with patched(coherence, "_Layer", Recorded):
        verdict = check_coherence(Assessment((zero, free)), ("A", "B"))
    assert isinstance(verdict, Coherent)
    level0, level1 = layers
    assert len(level0.homogeneous) == 1
    assert level0.m_idx[1] and len(level0.region()) == 2
    assert level1.entries == [free]
    assert level1.homogeneous == [] and len(level1.worlds) == 2
