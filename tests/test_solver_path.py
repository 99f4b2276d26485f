"""The solver path against the plain procedure it shortens.

propagate starts the Charnes-Cooper program from the max-m optimum, and the
zero-layer procedure tests points it already has (the phase-1 vertex, the
witness, the min-m solution) before any forced-zero solve. Here both are
checked against the procedure without those steps: a Charnes-Cooper region
rebuilt from its rows (phase 1 and all), a forced-zero fixpoint that starts
from the max-sum solve, and feasibility decided by a solve. Inputs are
random assessments over 2-4 declared atoms, some of them unused, with
zero-probability premises (zero-layer descents) and incoherent premise sets.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import conditional_value, vertex_bounds
from probarg import coherence
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
