"""Coherence checking and exact probability-bound propagation.

An Assessment constrains the probabilities of conditional objects; coherence
is decided by the recursive zero-layer procedure: solve a mass-assignment
system over the constituents, move the entries whose conditioning events are
forced to probability zero to a deeper layer restricted to the constituents
where some such conditioning event holds, and repeat. Each layer strictly
shrinks the active constituent set (a constituent satisfying no surviving
antecedent would carry positive mass into a forced-zero conditioning event),
so the recursion terminates.

The solver path takes as few solves as the answer allows:
- A layer builds lo*m <= e only when lo > 0 and e <= hi*m only when
  hi < 1; x >= 0 implies the rows it skips, and skipping them changes no
  pivot (see _Layer). For "quite sure" premises that is one row each.
- A layer's region starts in one pivot, with no phase 1, when all the
  mass can sit on one constituent: at it each entry is void, true with
  hi = 1, or false with lo = 0 (for "quite sure" premises, every
  conditional true or void). Its feasibility is read from the start
  vertex.
- An entry is forced to zero when its antecedent has zero mass at every
  feasible point. Positive mass at any one feasible point (a probe: the
  start vertex, the witness, the min-m solution) proves it is not, so
  only the entries no probe clears go to the max-sum fixpoint of
  _forced_zero. The forced set is a property of the polytope, so probes
  change no level and no verdict.
- The Charnes-Cooper program for a bound starts from the optimal tableau
  of maximizing the query's antecedent mass (Region.charnes_cooper),
  which propagate solves anyway, so it runs no phase 1.

Everything on the decision path is exact rational arithmetic: whether a
conclusion interval equals [0, 1] (probabilistic non-informativeness) is a
yes/no question, not a tolerance question.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ._value import Value, _set
from .events import (
    ConditionalObject,
    constituents,
    eval_classical,
)
from .linprog import EQ, GE, Region, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Exact conversion; accepts Fraction, int, or strings like '9/10', '0.9'."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r} on the exact decision path")
    return Fraction(value)


def unit_interval(lo, hi, what):
    """(lo, hi) as exact fractions; ValueError("invalid <what> [lo, hi]")
    unless 0 <= lo <= hi <= 1."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if not (ZERO <= lo <= hi <= ONE):
        raise ValueError(f"invalid {what} [{lo}, {hi}]")
    return lo, hi


class AssessmentEntry(Value):
    __slots__ = ("obj", "lo", "hi")

    def __init__(self, obj: ConditionalObject, lo: Fraction, hi: Fraction):
        lo, hi = unit_interval(lo, hi, "probability interval")
        _set(self, "obj", obj)
        _set(self, "lo", lo)
        _set(self, "hi", hi)


class Assessment(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple = ()):
        _set(
            self,
            "entries",
            tuple(
                e if isinstance(e, AssessmentEntry) else AssessmentEntry(*e)
                for e in entries
            ),
        )

    def atoms(self) -> frozenset:
        out = frozenset()
        for e in self.entries:
            out |= e.obj.atoms()
        return out

    def extended(self, obj, lo, hi) -> "Assessment":
        return Assessment(self.entries + (AssessmentEntry(obj, lo, hi),))


class Bounds(Value):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = unit_interval(lo, hi, "bounds")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


class Coherent(Value):
    """witness: the level-0 masses, indexed like constituents(atomset)."""

    __slots__ = ("witness", "atomset")

    def __init__(self, witness: tuple, atomset: tuple):
        _set(self, "witness", witness)
        _set(self, "atomset", atomset)


class Incoherent(Value):
    __slots__ = ("level", "description")

    def __init__(self, level: int, description: str):
        _set(self, "level", level)
        _set(self, "description", description)


class IncoherentPremises(ValueError):
    def __init__(self, certificate: Incoherent):
        super().__init__(f"premises incoherent: {certificate.description}")
        self.certificate = certificate


class ResponseCategory(enum.Enum):
    HOLDS = "holds"
    DOES_NOT_HOLD = "does_not_hold"
    NON_INFORMATIVE = "non_informative"
    INDETERMINATE = "indeterminate"


class ClassificationConfig(Value):
    """Numeric reading of the verbal layer.

    theta is the value of "quite sure"; tau_high / tau_low are the decision
    thresholds the conclusion interval is compared against.
    """

    __slots__ = ("theta", "tau_high", "tau_low")

    def __init__(
        self,
        theta: Fraction = Fraction(9, 10),
        tau_high: Fraction = Fraction(1, 2),
        tau_low: Fraction = Fraction(1, 2),
    ):
        theta = as_fraction(theta)
        tau_high = as_fraction(tau_high)
        tau_low = as_fraction(tau_low)
        if not (Fraction(1, 2) < theta <= ONE):
            raise ValueError("theta must be in (1/2, 1]")
        if not (ZERO <= tau_low <= tau_high <= ONE):
            raise ValueError("need 0 <= tau_low <= tau_high <= 1")
        _set(self, "theta", theta)
        _set(self, "tau_high", tau_high)
        _set(self, "tau_low", tau_low)


# --- layer systems -----------------------------------------------------------


class _Layer:
    """One zero-layer system, built once: its entries and constituents, per
    entry the constituent indices where its antecedent holds (m_idx), and
    the homogeneous rows lo*m <= e when lo > 0 and e <= hi*m when hi < 1
    (m: antecedent mass, e: mass where antecedent and consequent hold).

    The rows skipped, e >= 0 for lo = 0 and m - e >= 0 for hi = 1, are ">="
    rows with rhs 0 and no negative coefficient, so x >= 0 implies them
    (the first rule of LP presolve). Skipping one changes no pivot: its
    slack equals a nonnegative combination of masses, so whenever its ratio
    is the smallest, a basic mass in that combination has the same ratio
    and, with the smaller column index, wins the tie; the slack never
    leaves the basis, so it never enters, and every other row, reduced
    cost, crash column and tie-break is the same without it. The entry
    keeps its m_idx, so forced-zero sets and deeper layers do not change."""

    def __init__(self, entries, world_list):
        n = len(world_list)
        self.entries = entries
        self.worlds = world_list
        self.m_idx = []
        self.homogeneous = []
        for entry in entries:
            m_idx = [
                j
                for j, v in enumerate(world_list)
                if eval_classical(entry.obj.antecedent, v)
            ]
            e_idx = [
                j for j in m_idx if eval_classical(entry.obj.consequent, world_list[j])
            ]
            self.m_idx.append(m_idx)
            # (coefficient on m, on e) of each row built
            cuts = []
            if entry.lo:
                cuts.append((-entry.lo, ONE))
            if entry.hi < ONE:
                cuts.append((entry.hi, -ONE))
            for on_m, on_e in cuts:
                row = [ZERO] * n
                for j in m_idx:
                    row[j] = on_m
                for j in e_idx:
                    row[j] += on_e
                self.homogeneous.append((row, GE, ZERO))

    def region(self, *extra_rows) -> Region:
        """The layer's masses summing to 1 under its rows, plus extra_rows."""
        n = len(self.worlds)
        rows = [([1] * n, EQ, 1)] + self.homogeneous + list(extra_rows)
        return Region(rows, n)

    def antecedent_mass(self, indices):
        """Objective: the summed antecedent mass of the given entries."""
        objective = [0] * len(self.worlds)
        for i in indices:
            for j in self.m_idx[i]:
                objective[j] += 1
        return objective


def _mass_row(obj, world_list):
    row = [0] * len(world_list)
    for j, v in enumerate(world_list):
        if eval_classical(obj.antecedent, v):
            row[j] = 1
    return row


def _forced_zero(layer, region, probes=(), res=None):
    """Indices of entries whose conditioning event has zero mass at every
    point of the layer system (region). probes: points of region already
    at hand. res, when given, is a solve already made of the first round:
    the summed antecedent mass of all entries, maximized over region.

    An iterative fixpoint: maximize the summed antecedent mass over the
    current candidate set; a maximum of zero proves every candidate forced
    (the masses are nonnegative), otherwise drop the candidates that came
    out positive and retry. A single max-sum solve would not do: a vertex
    optimum can park an individual antecedent at zero even though another
    solution gives it positive mass. Positive antecedent mass at any one
    feasible point proves an entry is not forced, so before any solve the
    entries positive at a probe, then at region's start vertex, are
    dropped. The forced set is a property of the polytope, so the probes
    change only how many solves find it.
    """
    candidates = list(range(len(layer.m_idx)))
    if res is not None:
        if res.value == 0:
            return candidates
        probes = [*probes, res.solution]
    for x in probes:
        candidates = _zero_at(layer, candidates, x)
    if candidates:
        candidates = _zero_at(layer, candidates, region.vertex())
    while candidates:
        res = _optimal(solve_lp(layer.antecedent_mass(candidates), region))
        if res.value == 0:
            return candidates
        candidates = _zero_at(layer, candidates, res.solution)
    return candidates


def _zero_at(layer, candidates, x):
    """The candidate entries whose antecedent has zero mass at the point x."""
    return [i for i in candidates if not any(x[j] for j in layer.m_idx[i])]


def _optimal(res):
    if res.status != "optimal":
        raise RuntimeError(f"layer system unexpectedly {res.status}")
    return res


def _restrict_worlds(world_list, antecedents):
    return [
        v for v in world_list if any(eval_classical(a, v) for a in antecedents)
    ]


def check_coherence(a: Assessment, atomset):
    """Decide coherence of an assessment over the declared atoms.

    Returns Coherent with a level-0 mass witness (chosen with maximal
    antecedent support) or Incoherent with the failing layer.
    """
    atomset = tuple(atomset)
    layer, region = _level0(a, atomset)
    support = None
    if region.vertex() is not None:
        support = solve_lp(layer.antecedent_mass(range(len(layer.entries))), region)
    incoherent = _zero_layers(layer, region, support)
    return incoherent or Coherent(tuple(support.solution), atomset)


def _level0(a: Assessment, atomset):
    """The level-0 _Layer of an assessment over the atoms, and its region."""
    missing = a.atoms() - set(atomset)
    if missing:
        raise ValueError(f"undeclared atoms in assessment: {sorted(missing)}")
    layer = _Layer(list(a.entries), constituents(atomset))
    return layer, layer.region()


def _zero_layers(layer, region, support=None):
    """The zero-layer procedure from the level-0 layer: Incoherent with the
    failing layer, or None when the assessment is coherent. support, when
    given, is the level-0 solve of check_coherence's witness.

    Each layer's start vertex decides its feasibility, with no solve.
    """
    level = 0
    while True:
        if region.vertex() is None:
            desc = (
                f"level-{level} system over {len(layer.worlds)} constituents is "
                f"unsolvable for entries: "
                + "; ".join(
                    f"p({e.obj}) in [{e.lo}, {e.hi}]" for e in layer.entries
                )
            )
            return Incoherent(level, desc)
        forced = _forced_zero(layer, region, res=support)
        if not forced:
            return None
        entries = [layer.entries[i] for i in forced]
        world_list = _restrict_worlds(
            layer.worlds, [e.obj.antecedent for e in entries]
        )
        layer = _Layer(entries, world_list)
        region = layer.region()
        support = None
        level += 1


def structural_bounds(q: ConditionalObject):
    """[0,0] / [1,1] fast path for logically settled conditionals, else None."""
    names = sorted(q.atoms())
    worlds = constituents(names) if names else [{}]
    m_worlds = [v for v in worlds if eval_classical(q.antecedent, v)]
    # antecedent is satisfiable by construction, so m_worlds is nonempty
    truths = [eval_classical(q.consequent, v) for v in m_worlds]
    if not any(truths):
        return Bounds(ZERO, ZERO)
    if all(truths):
        return Bounds(ONE, ONE)
    return None


def _fractional_bounds(region, max_m, e_row):
    """Exact min/max of e_q / m_q over the layer region with m_q > 0, where
    max_m is solve_lp's maximum of m_q over region, and it is positive.

    Charnes-Cooper: scale masses so the antecedent of q carries total mass 1;
    the entry constraints are homogeneous so they survive the scaling, the
    normalization row is replaced by m_q = 1, and the objective becomes
    linear. The objective is e_q(mu) <= m_q(mu) = 1, so both programs are
    bounded and their optima are attained by genuine mass vectors. Their
    region starts from max_m's optimal tableau (Region.charnes_cooper), so
    it needs no phase 1 of its own.
    """
    scaled = region.charnes_cooper(max_m)
    lo = solve_lp(e_row, scaled, maximize=False)
    hi = solve_lp(e_row, scaled, maximize=True)
    if lo.status != "optimal" or hi.status != "optimal":
        raise RuntimeError(
            f"Charnes-Cooper programs unexpectedly {lo.status}/{hi.status}"
        )
    return lo.value, hi.value


def propagate(a: Assessment, q: ConditionalObject, atomset) -> Bounds:
    """Exact coherent interval for p(q) given a coherent assessment.

    Level-0 bounds come from the linear-fractional program; whenever the
    antecedent of q may (or must) carry zero mass, the zero-layer where it
    becomes positive is searched as well, constrained by the premises that
    are forced to zero alongside it, and the results are joined.
    """
    atomset = tuple(atomset)
    layer, region = _level0(a, atomset)
    incoherent = _zero_layers(layer, region)
    if incoherent:
        raise IncoherentPremises(incoherent)
    sb = structural_bounds(q)
    if sb is not None:
        return sb
    missing = q.atoms() - set(atomset)
    if missing:
        raise ValueError(f"undeclared atoms in query: {sorted(missing)}")
    return _propagate_layer(layer, region, q)


def _propagate_layer(layer, region, q) -> Bounds:
    """Bounds on p(q) over one layer; region is layer.region()."""
    m_row = _mass_row(q, layer.worlds)
    max_m = _optimal(solve_lp(m_row, region, maximize=True))
    if max_m.value == 0:
        forced = _forced_zero(layer, region, [max_m.solution])
        return _descend(layer, forced, q)
    e_row = [
        1 if m and eval_classical(q.consequent, v) else 0
        for m, v in zip(m_row, layer.worlds)
    ]
    lo, hi = _fractional_bounds(region, max_m, e_row)
    min_m = _optimal(solve_lp(m_row, region, maximize=False))
    if min_m.value > 0:
        return Bounds(lo, hi)
    # m_q = 0 stays feasible: values settled only at the deeper layer
    # where q's antecedent turns positive remain coherent too. min_m's
    # solution is a point of that system.
    forced = _forced_zero(layer, layer.region((m_row, EQ, 0)), [min_m.solution])
    deeper = _descend(layer, forced, q)
    return Bounds(min(lo, deeper.lo), max(hi, deeper.hi))


def _descend(layer, forced, q) -> Bounds:
    sub_entries = [layer.entries[i] for i in forced]
    sub_worlds = _restrict_worlds(
        layer.worlds, [q.antecedent] + [e.obj.antecedent for e in sub_entries]
    )
    # q's antecedent is satisfiable, so the restriction is nonempty; it is
    # also strictly smaller than the layer's worlds (otherwise the pinned
    # masses could not sum to one), which bounds the recursion depth.
    sub = _Layer(sub_entries, sub_worlds)
    return _propagate_layer(sub, sub.region(), q)


def classify(b: Bounds, cfg: ClassificationConfig = ClassificationConfig()) -> ResponseCategory:
    """Map a conclusion interval to the forced-choice answer space.

    [0,1] is the non-informative case. Otherwise the interval midpoint is
    compared against the thresholds: an interval leaning above tau_high
    counts as holding, one leaning below tau_low as not holding, anything
    else stays indeterminate.
    """
    if b.lo == ZERO and b.hi == ONE:
        return ResponseCategory.NON_INFORMATIVE
    mid2 = b.lo + b.hi
    if mid2 > 2 * cfg.tau_high:
        return ResponseCategory.HOLDS
    if mid2 < 2 * cfg.tau_low:
        return ResponseCategory.DOES_NOT_HOLD
    return ResponseCategory.INDETERMINATE
