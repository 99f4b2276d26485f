"""The contract of coherence._Layer, derived world by world.

A layer is a function of its arguments (entries, tables, domain, extra).
The rest of the package reads it through reps, cols, m_cols, homogeneous,
singles, region(), worlds(), antecedent_mass(), deeper() and
world_masses(). Here each of them is derived from the arguments one world
at a time, with no class masks, no presolve on masks and no crash scan:

- live: the worlds of domain that the forcing-row rule leaves. A premise
  row with no negative coefficient pins every world where it is positive
  at zero mass, as its rhs is 0 and x >= 0; the rows are found again over
  the worlds left until none is pinned;
- reps: one per class of live worlds with equal signatures (the value of
  every table of tables and extra there), its lowest world, in world
  order; cols: their mask; m_cols: per entry, the reps where m holds;
- homogeneous: per entry, the rows lo*m - e <= 0 and e - hi*m <= 0 over
  reps, in Fractions, where they have a positive coefficient, each in
  int form with its slack unit (int_row);
- singles: the reps where no row is positive.

check_layer compares a built layer with the derivation: the fields, the
methods read against reps (worlds maps bit k to reps[k]), and region()'s
initial tableau, start and supports against general_rows.started_region
over the same rows, whose crash scan also finds the crash points; a crash
start is laid out with no pivot. With atoms it reads the tables with
eval_classical too. ReferenceLayer is a
_Layer whose fields are the derivation, with or without presolve and with
or without merging twin worlds. Nothing in src/ imports this module.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from unittest import mock

import solver_counts
from general_rows import EQ, LE, started_region
from int_rows import int_row
from probarg import coherence, linprog
from probarg.events import And, constituents, eval_classical

CONTRACT = ("reps", "cols", "m_cols", "homogeneous", "singles")


def worlds_of(domain):
    """The world indices in a mask, ascending."""
    return [w for w in range(domain.bit_length()) if domain >> w & 1]


def obj_tables(obj, atoms):
    """A conditional object's (m, e) tables, read world by world with
    eval_classical over constituents(atoms)."""
    return _obj_tables(obj, tuple(atoms))


@cache
def _obj_tables(obj, atoms):
    worlds = _constituents(atoms)
    return tuple(
        sum(1 << j for j, v in enumerate(worlds) if eval_classical(f, v))
        for f in (obj.antecedent, And(obj.antecedent, obj.consequent))
    )


@cache
def _constituents(atoms):
    return constituents(atoms)


@cache
def int_coefficients(lo, hi, held):
    """The rows lo*m - e <= 0 and e - hi*m <= 0 over worlds where the pairs
    (m, e) of held hold: for each row with a positive coefficient, its
    coprime int coefficient per pair and its slack unit, made by int_row
    from the Fractions. int_row scales every coefficient alike, so the
    distinct ones give the row's."""
    out = []
    for row in ([lo * h_m - h_e for h_m, h_e in held], [h_e - hi * h_m for h_m, h_e in held]):
        if any(v > 0 for v in row):
            ints, _, _, k = int_row(row, "<=", 0)
            out.append((dict(zip(held, ints)), k))
    return out


def premise_rows(entries, tables, worlds):
    """Per entry, the rows lo*m - e <= 0 and e - hi*m <= 0 over worlds that
    have a positive coefficient, each as _Layer.homogeneous holds a row: a
    pair (row, k) of coprime ints and a slack unit (int_coefficients)."""
    rows = []
    for entry, (m, e) in zip(entries, tables):
        held = [(m >> w & 1, e >> w & 1) for w in worlds]
        for as_int, k in int_coefficients(entry.lo, entry.hi, tuple(sorted(set(held)))):
            rows.append(([as_int[h] for h in held], k))
    return rows


def derived(entries, tables, domain, extra=(), presolve=True, merge=True):
    """The contract fields of the layer with these arguments (see the
    module docstring) as a dict, with live, the mask of the live worlds.
    presolve=False keeps every world of domain live; merge=False makes each
    live world its own column. The rows over the reps are the rows over the
    live worlds read at the reps: every live world holds the values of
    some rep, so they have the same distinct coefficients."""
    live = worlds_of(domain)
    while True:
        rows = premise_rows(entries, tables, live)
        pinned = presolve and {
            w for row, _ in rows if min(row) >= 0 for w, v in zip(live, row) if v
        }
        if not pinned:
            break
        live = [w for w in live if w not in pinned]
    at = range(len(live))
    if merge:
        signatures = {}
        for k, w in enumerate(live):
            signatures.setdefault(tuple(t >> w & 1 for pair in (*tables, extra) for t in pair), k)
        at = list(signatures.values())
    reps = [live[k] for k in at]
    rows = [([row[k] for k in at], unit) for row, unit in rows]
    return {
        "live": sum(1 << w for w in live),
        "reps": reps,
        "cols": sum(1 << r for r in reps),
        "m_cols": [sum(1 << r for r in reps if m >> r & 1) for m, _ in tables],
        "homogeneous": rows,
        "singles": sum(1 << r for k, r in enumerate(reps) if all(row[k] <= 0 for row, _ in rows)),
    }


class ReferenceLayer(coherence._Layer):
    """A _Layer whose fields are derived(), not built by the package; its
    methods are _Layer's, reading those fields. A subclass sets presolve or
    merge to False for the layer without presolve or with one column per
    live world."""

    presolve = merge = True

    def __init__(self, entries, tables, domain, extra=()):
        self.entries, self.tables, self.domain, self.extra = entries, tables, domain, extra
        fields = derived(entries, tables, domain, extra, self.presolve, self.merge)
        vars(self).update({k: fields[k] for k in CONTRACT})


def built_region(build):
    """The region build() makes, as a layer's region() does, with the
    starts it made (solver_counts.starts()) and the number of pivots."""
    pivots, pivot = 0, linprog._pivot

    def counted(*args):
        nonlocal pivots
        pivots += 1
        return pivot(*args)

    with solver_counts.starts() as made, mock.patch.object(linprog, "_pivot", counted):
        region = build()
    return region, made, pivots


def check_layer(layer, atoms=None, q=None, built=None):
    """Assert that a built layer is the one its arguments derive. With atoms,
    its tables must be its entries' read with eval_classical, and with a
    query q its extra tables, if any, q's. built: what built_region
    returned for the layer's region() where the caller made it so, as the
    solver ran; otherwise the region is made here. Returns the derivation,
    with "start": how the region starts, "crash", "phase 1" or
    "infeasible", or "no column" for a layer with no column, which makes no
    start."""
    if atoms is not None:
        assert layer.tables == [obj_tables(e.obj, atoms) for e in layer.entries]
        if q is not None and layer.extra:
            assert layer.extra == obj_tables(q, atoms)
    want = derived(layer.entries, layer.tables, layer.domain, layer.extra)
    assert {k: getattr(layer, k) for k in CONTRACT} == {k: want[k] for k in CONTRACT}
    reps, n = want["reps"], len(want["reps"])

    def as_worlds(support):
        return sum(1 << reps[k] for k in range(support.bit_length()) if support >> k & 1)

    assert [layer.worlds(1 << k) for k in range(n)] == [1 << r for r in reps]
    assert layer.worlds((1 << n) - 1) == want["cols"]
    forced = list(range(1, len(layer.entries)))
    for chosen in (range(len(layer.entries)), forced):
        want_mass = [sum(layer.tables[i][0] >> r & 1 for i in chosen) for r in reps]
        assert layer.antecedent_mass(chosen) == want_mass
    x = list(range(1, n + 1))
    masses = layer.world_masses(x)
    assert len(masses) == layer.domain.bit_length()
    assert [w for w, v in enumerate(masses) if v] == reps and [masses[r] for r in reps] == x
    antecedents = [*layer.extra[:1], *(layer.tables[i][0] for i in forced)]
    domain = sum(1 << w for w in worlds_of(layer.domain) if any(m >> w & 1 for m in antecedents))
    # the arguments deeper() builds its layer of
    with mock.patch.object(coherence, "_Layer", lambda *args: args):
        sub = layer.deeper(forced, layer.extra)
    entries, tables = [layer.entries[i] for i in forced], [layer.tables[i] for i in forced]
    assert sub == (entries, tables, domain, layer.extra)

    rows = [([1] * n, EQ, 1)] + [(row, LE, 0, k) for row, k in want["homogeneous"]]
    with solver_counts.starts() as general_start:
        general, crash_points = started_region(rows, n)
    assert layer.singles == as_worlds(crash_points or 0)
    region, made, pivots = built or built_region(layer.region)
    if n:
        assert made == general_start
        want["start"] = made[0][2]
    else:
        # The empty-row rule: no start, where the general rows' phase 1
        # finds sum(x) == 1 over no column infeasible.
        assert made == [] and general_start[0][2] == "infeasible"
        want["start"] = "no column"
    assert region._base == general._base
    assert len(region) == len(general) == len(rows)
    support = region.support()
    assert support == general.support()
    if support is not None:
        assert layer.worlds(support) == as_worlds(support)
    if want["start"] == "crash":
        # laid out, with no pivot
        assert pivots == 0
        for row, b in zip(*region._base):
            assert gcd(*row) == 1 and row[b] > 0 and row[-1] >= 0
    return want
