"""Coherence checking and exact probability-bound propagation.

An Assessment constrains the probabilities of conditional objects; coherence
is decided by the recursive zero-layer procedure: solve a mass-assignment
system over the constituents, move the entries whose conditioning events are
forced to probability zero to a deeper layer restricted to the constituents
where some such conditioning event holds, and repeat. Each layer strictly
shrinks the active constituent set (a constituent satisfying no surviving
antecedent would carry positive mass into a forced-zero conditioning event),
so the recursion terminates.

The systems are built from truth tables (events.truth_table), not from
valuations. Each entry's tables, m where its antecedent holds and e where
antecedent and consequent hold, and the query's, are computed once over
the level-0 worlds 0 .. 2^n - 1 (constituents() order), in one pass over
one atom map (events.tabulator). A layer covers a domain, a mask of
level-0 worlds, and has one column per class of the worlds there that its
tables cannot tell apart (the entries', and on the propagate path the
query's), represented by the class's lowest world. Twin worlds would give
equal columns that never enter the basis, so the merged system makes the
per-world system's pivots on fewer cells, and a witness puts each class's
mass on its representative (see _Layer). Rows, objectives and deeper
domains read one bit per class. The entry rows reach linprog as "<=" rows
with rhs 0 in coprime ints, so Region has nothing to negate.

The solver path takes as few solves as the answer allows:
- A layer builds a premise row only where it has a positive coefficient:
  lo*m <= e when lo > 0 and e fails somewhere on m, e <= hi*m when hi < 1
  and e holds somewhere; x >= 0 implies the rows it skips, and skipping
  them changes no pivot (see _Layer). For "quite sure" premises that is
  one row each.
- A layer's region starts in one pivot, with no phase 1, when all the
  mass can sit on one constituent: at it each entry is void, true with
  hi = 1, or false with lo = 0 (for "quite sure" premises, every
  conditional true or void). Its feasibility is read from its start, with
  no solve.
- An entry is forced to zero when its antecedent has zero mass at every
  feasible point. Positive mass at any one feasible point proves it is
  not. The probes are supports, int masks over the columns: the start's
  (Region.support(), which after a one-pivot start holds every column
  that allowed it), the witness solve's, max m's or min m's. Only the
  entries no probe clears go to the max-sum fixpoint of _forced_zero.
  The forced set is a property of the polytope, so probes change no level
  and no verdict.
- Where min m = 0, the entries forced to zero with m_q = 0 are found over
  the layer of the worlds where q's antecedent fails. As x >= 0, that is
  the polytope with the row m_q = 0 added, whose two artificial rows
  always needed phase 1; the smaller layer can take the one-pivot start.
- The Charnes-Cooper program for a bound starts from the optimal tableau
  of maximizing the query's antecedent mass (Region.charnes_cooper),
  which propagate solves anyway, so it runs no phase 1.

Everything on the decision path is exact rational arithmetic: whether a
conclusion interval equals [0, 1] (probabilistic non-informativeness) is a
yes/no question, not a tolerance question. It is int arithmetic up to the
answer: a solve gives its value as one Fraction and its support as an int
mask, and a point in Fractions is built only for check_coherence's
witness. The bounds are the Charnes-Cooper values.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ._value import Value, _set
from .events import ConditionalObject, declared, tabulator, truth_table
from .linprog import EQ, LE, Region, solve_lp

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
    """One zero-layer system, built once.

    domain: the level-0 worlds the layer covers, as an int mask over the
    world indices 0 .. 2^n - 1, the bits of the truth tables. entries: its
    assessment entries, and tables: per entry the level-0 tables (m, e) of
    its antecedent and of antecedent and consequent (see _tables). extra:
    more tables the columns must tell apart; on the propagate path, the
    query's (m, e).

    classes: the columns, the classes of the worlds of domain that no table
    of tables or extra tells apart: domain split by each table t into its
    parts inside and outside t, empty parts dropped. They are int masks,
    ordered by their lowest world, the class's representative. These are
    the constituents generated by the family (Gilio 2002; Biazzo and Gilio
    2000): every table holds on all of a class or on none of it, so rows,
    objectives and deeper domains read one bit per class. m_cols: per
    entry, the columns where m holds, as an int mask (bit k for column k),
    the mask linprog's supports use. homogeneous: the entry rows, each a
    "<=" row with rhs 0 in coprime ints, 0 where m fails:

    - lo*m <= e, for lo = a/b: a - b where e holds, a where m holds and e
      fails, slack coefficient b;
    - e <= hi*m, for hi = c/d: d - c where e holds, -c where m holds and e
      fails, slack coefficient d.

    Each is its rational row with a unit slack (lo - 1 and lo, 1 - hi and
    -hi) scaled by its denominator, so the tableau and every pivot are
    those of the rational rows. A unit slack on the int row would change
    the slack's unit and, through Dantzig's rule, some pivots.

    One column per class makes the pivots of one column per world. Twin
    worlds, two of one class, have equal columns in every row and
    objective, so their tableau columns and reduced costs stay equal while
    neither is basic. Every choice of a column takes the lowest index:
    Dantzig's rule the first of equal maxima (a strict >), Bland's rule the
    smallest improving index, the crash start and the eviction of
    artificials the first column that qualifies. So only a representative
    enters; once it is basic its twins price at 0 and never enter, and
    every twin stays at 0. A twin repeats an entry of its row, so the row
    gcds, and with them the whole tableau on the representatives, are
    those of the per-world system. world_masses puts each class's mass on
    its representative, which is the per-world solution.

    A row is built only when it has a positive coefficient: lo*m <= e when
    lo > 0 and e fails on some column where m holds, e <= hi*m when hi < 1
    and e holds on some column. A row skipped has none, so x >= 0 implies
    it (the first rule of LP presolve). Skipping one changes no pivot: its
    slack equals a nonnegative combination of masses, so whenever its
    ratio is the smallest, a basic mass in that combination has the same
    ratio and, with the smaller column index, wins the tie; the slack
    never leaves the basis, so it never enters, and every other row,
    reduced cost, crash column and tie-break is the same without it. The
    entry keeps its m_cols, so forced-zero sets and deeper layers do not
    change."""

    def __init__(self, entries, tables, domain, extra=()):
        self.entries = entries
        self.tables = tables
        self.domain = domain
        self.extra = extra
        classes = [domain] if domain else []
        for pair in (*tables, extra):
            for t in pair:
                parts = []
                for c in classes:
                    inside = c & t
                    if inside and inside != c:
                        # c ^ inside is c & ~t without a negative int, whose
                        # & is an order of magnitude slower on a 2^16-world
                        # table
                        parts += (inside, c ^ inside)
                    else:
                        parts.append(c)
                classes = parts
        classes.sort(key=lambda c: c & -c)
        self.classes = classes
        self.m_cols = []
        self.homogeneous = []
        for entry, (m, e) in zip(entries, tables):
            m_cols, bit, on_m, on_e = 0, 1, 0, 0
            for c in classes:
                if m & c:
                    m_cols |= bit
                    on_m += 1
                    if e & c:
                        on_e += 1
                bit <<= 1
            self.m_cols.append(m_cols)
            # lo = a/b and hi = c/d; lo > 0 is a > 0, and hi < 1 is c < d
            a, b = entry.lo.numerator, entry.lo.denominator
            c, d = entry.hi.numerator, entry.hi.denominator
            # (coefficient where m holds and e fails, where e holds, slack
            # coefficient) of each row built
            cuts = []
            if a and on_e < on_m:
                cuts.append((a, a - b, b))
            if c < d and on_e:
                cuts.append((-c, d - c, d))
            for off_e, in_e, k in cuts:
                row = [(in_e if e & w else off_e) if m & w else 0 for w in classes]
                self.homogeneous.append((row, LE, 0, k))

    def region(self) -> Region:
        """The layer's masses summing to 1 under its rows."""
        n = len(self.classes)
        return Region([([1] * n, EQ, 1)] + self.homogeneous, n)

    def antecedent_mass(self, indices):
        """Objective: the summed antecedent mass of the given entries."""
        objective = [0] * len(self.classes)
        for i in indices:
            cols = self.m_cols[i]
            while cols:
                low = cols & -cols
                objective[low.bit_length() - 1] += 1
                cols ^= low
        return objective

    def deeper(self, forced, extra=()):
        """The layer of the entries forced to zero, over the worlds of this
        layer where one of their antecedents, or extra's antecedent table,
        holds; extra: the query's (m, e) tables, or none."""
        tables = [self.tables[i] for i in forced]
        domain = _restrict_worlds(self.domain, [*extra[:1], *(m for m, _ in tables)])
        return _Layer([self.entries[i] for i in forced], tables, domain, extra)

    def world_masses(self, x):
        """x, one mass per class, as masses of the level-0 worlds up to the
        domain's highest: each class's mass on its representative, 0 on
        every other world."""
        masses = [ZERO] * self.domain.bit_length()
        for c, v in zip(self.classes, x):
            masses[(c & -c).bit_length() - 1] = v
        return masses


def _tables(obj, table):
    """The truth tables (m, e) of a conditional object, table being a
    formula's truth table (events.tabulator): m where its antecedent holds,
    e where antecedent and consequent both hold."""
    m = table(obj.antecedent)
    return m, m & table(obj.consequent)


def _mass_row(table, classes):
    """1 on the classes where table holds, 0 elsewhere: the mass of an
    event as an objective."""
    return [1 if table & c else 0 for c in classes]


def _forced_zero(layer, region, probes=(), res=None):
    """Indices of entries whose conditioning event has zero mass at every
    point of the layer system (region). probes: supports (int masks over
    the columns, linprog's support()) of points of region already at hand.
    res, when given, is a solve already made of the first round: the summed
    antecedent mass of all entries, maximized over region.

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
    candidates = list(range(len(layer.m_cols)))
    if res is not None:
        if not res.value:
            return candidates
        probes = [*probes, res.support()]
    for support in probes:
        candidates = _zero_at(layer, candidates, support)
    if candidates:
        candidates = _zero_at(layer, candidates, region.support())
    while candidates:
        res = _optimal(solve_lp(layer.antecedent_mass(candidates), region))
        if not res.value:
            return candidates
        candidates = _zero_at(layer, candidates, res.support())
    return candidates


def _zero_at(layer, candidates, support):
    """The candidate entries whose antecedent has zero mass at a point with
    the given support."""
    return [i for i in candidates if not layer.m_cols[i] & support]


def _optimal(res):
    if res.status != "optimal":
        raise RuntimeError(f"layer system unexpectedly {res.status}")
    return res


def _restrict_worlds(domain, antecedents):
    """The worlds of domain where at least one of the antecedent tables
    holds, as a mask."""
    union = 0
    for m in antecedents:
        union |= m
    return domain & union


def check_coherence(a: Assessment, atomset):
    """Decide coherence of an assessment over the declared atoms.

    Returns Coherent with a level-0 mass witness (chosen with maximal
    antecedent support) or Incoherent with the failing layer.
    """
    atomset = tuple(atomset)
    layer, region = _level0(a, atomset)
    support = None
    if region.support() is not None:
        support = solve_lp(layer.antecedent_mass(range(len(layer.entries))), region)
    incoherent = _zero_layers(layer, region, support)
    return incoherent or Coherent(tuple(layer.world_masses(support.solution)), atomset)


def _level0(a: Assessment, atomset, q=None):
    """The level-0 _Layer of an assessment over the atoms, and its region.
    With a query q, the layer's columns tell q's tables (layer.extra) apart
    too, so the one region serves propagate's coherence check and its
    bounds; layer.extra is () when q has an undeclared atom.

    Every table comes from one atom map (events.tabulator). An undeclared
    atom of the assessment is named before any fault of the atom set."""
    entries = list(a.entries)
    try:
        table = tabulator(declared(atomset))
        tables = [_tables(e.obj, table) for e in entries]
    except (KeyError, ValueError):
        missing = a.atoms() - set(atomset)
        if missing:
            raise ValueError(f"undeclared atoms in assessment: {sorted(missing)}") from None
        raise
    extra = ()
    if q is not None:
        try:
            extra = _tables(q, table)
        except KeyError:
            pass  # propagate names the atoms once the premises are checked
    layer = _Layer(entries, tables, (1 << (1 << len(atomset))) - 1, extra)
    return layer, layer.region()


def _zero_layers(layer, region, support=None):
    """The zero-layer procedure from the level-0 layer: Incoherent with the
    failing layer, or None when the assessment is coherent. support, when
    given, is the level-0 solve of check_coherence's witness.

    Each layer's start decides its feasibility, with no solve.
    """
    level = 0
    while True:
        if region.support() is None:
            desc = (
                f"level-{level} system over {layer.domain.bit_count()} constituents is "
                f"unsolvable for entries: "
                + "; ".join(
                    f"p({e.obj}) in [{e.lo}, {e.hi}]" for e in layer.entries
                )
            )
            return Incoherent(level, desc)
        forced = _forced_zero(layer, region, res=support)
        if not forced:
            return None
        layer = layer.deeper(forced)
        region = layer.region()
        support = None
        level += 1


def structural_bounds(q: ConditionalObject):
    """[0,0] / [1,1] fast path for logically settled conditionals, else None."""
    names = sorted(q.atoms())
    return _settled(*_tables(q, lambda f: truth_table(f, names)))


def _settled(m, e):
    """[0,0] when e never holds, [1,1] when e holds wherever m does, else
    None: the bounds of a query with tables (m, e) over any atoms that
    include its own. The antecedent is satisfiable by construction, so m is
    not 0."""
    if not e:
        return Bounds(ZERO, ZERO)
    if e == m:
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
    layer, region = _level0(a, atomset, q)
    incoherent = _zero_layers(layer, region)
    if incoherent:
        raise IncoherentPremises(incoherent)
    if not layer.extra:
        raise ValueError(f"undeclared atoms in query: {sorted(q.atoms() - set(atomset))}")
    return _settled(*layer.extra) or _propagate_layer(layer, region, layer.extra)


def _propagate_layer(layer, region, q) -> Bounds:
    """Bounds on p(q) over one layer; q is the query's (m, e) tables and
    region is layer.region()."""
    m_row = _mass_row(q[0], layer.classes)
    max_m = _optimal(solve_lp(m_row, region, maximize=True))
    if not max_m.value:
        forced = _forced_zero(layer, region, [max_m.support()])
        return _descend(layer, forced, q)
    e_row = _mass_row(q[1], layer.classes)
    lo, hi = _fractional_bounds(region, max_m, e_row)
    min_m = _optimal(solve_lp(m_row, region, maximize=False))
    if min_m.value:
        return Bounds(lo, hi)
    # m_q = 0 stays feasible: values settled only at the deeper layer
    # where q's antecedent turns positive remain coherent too. Its forced
    # set is that of the points with m_q = 0: as x >= 0, those of the layer
    # over the worlds where q's antecedent fails, whose columns are this
    # layer's columns outside m_q, in order. min_m is such a point.
    pinned = _Layer(layer.entries, layer.tables, layer.domain ^ (layer.domain & q[0]))
    probe = _outside(min_m.support(), layer.classes, q[0])
    forced = _forced_zero(pinned, pinned.region(), [probe])
    deeper = _descend(layer, forced, q)
    return Bounds(min(lo, deeper.lo), max(hi, deeper.hi))


def _outside(support, classes, m):
    """support, a mask over classes, as a mask over the classes outside
    the table m, taken in order."""
    mask = k = 0
    for j, c in enumerate(classes):
        if not c & m:
            if support >> j & 1:
                mask |= 1 << k
            k += 1
    return mask


def _descend(layer, forced, q) -> Bounds:
    # q's antecedent is satisfiable, so the restriction is nonempty; it is
    # also strictly smaller than the layer's domain (otherwise the pinned
    # masses could not sum to one), which bounds the recursion depth.
    sub = layer.deeper(forced, q)
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
