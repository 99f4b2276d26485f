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
domains read one bit per class, its representative's, so a layer keeps
representatives and world masks, not class masks. A set of columns is a
world mask, the mask of their representatives, read off the tables with
mask operations: the columns where a table holds are the table & the mask
of all representatives. The entry rows are "<=" rows with rhs 0 in
coprime ints, each with its slack coefficient, which linprog's Region
lays out as a tableau and starts, with no row checked or normalised.

The solver path takes as few solves as the answer allows:
- A layer first drops the worlds that a row with no negative
  coefficient pins at zero mass, such as those of A where p(A) = 0 or of
  not A where p(A) = 1, until no row pins one, and only then splits the
  worlds left into classes (presolve; see _Layer). The polytope stays the
  same, so no answer changes. An entry whose antecedent holds on no class
  left is forced to zero with no solve.
- A layer builds a premise row only where it has a positive coefficient:
  lo*m <= e when lo > 0 and e fails somewhere on m, e <= hi*m when hi < 1
  and e holds somewhere; x >= 0 implies the rows it skips, and skipping
  them changes no pivot (see _Layer). For "quite sure" premises that is
  one row each.
- A layer's region needs no phase 1 when all the mass can sit on one
  constituent, a crash point: at it each entry is void, true with hi = 1,
  or false with lo = 0 (for "quite sure" premises, every conditional true
  or void). The crash points are read off the tables as the columns where
  no row built is positive (_Layer.singles), and Region lays out the
  start that the one pivot on the lowest of them gives, with no scan of
  the tableau and no pivot. Its feasibility is read from its start, with
  no solve.
- An entry is forced to zero when its antecedent has zero mass at every
  feasible point. Positive mass at any one feasible point proves it is
  not. The probes are supports as world masks: the crash points and the
  start vertex's (Region.support(), mapped to the representatives), the
  witness solve's or max m's. Only the entries no
  probe clears go to the max-sum fixpoint of _forced_zero, which solves
  only while one of them has an antecedent column. The forced set is a
  property of the polytope, so probes change no level and no verdict.
- Whether m_q can be 0 is read, with no solve, from the start of the
  layer of the worlds where q's antecedent fails (the pinned layer). As
  x >= 0, its points are the layer's points with m_q = 0, so it is
  feasible exactly when min m = 0; the row m_q = 0 would add a second
  artificial row, which always needs phase 1, where the smaller layer can
  take the one-pivot start or be emptied by its presolve. Where it is
  feasible, the entries it forces to zero go to the deeper layer. A layer
  whose domain lies inside q's antecedent builds no pinned layer: its
  domain would be empty.
- A side of a layer's bounds is read off a feasible point where one
  proves it: a point with m_q > 0 and ratio e_q / m_q of 0 proves lo = 0,
  one with ratio 1 proves hi = 1, as every ratio lies in [0, 1]. The
  points are the crash points, each a feasible point alone
  (_Layer.singles). Where they prove both sides, the bounds are
  [0, 1] with no solve at all.
- The Charnes-Cooper program for a side no point proves starts from the
  optimal tableau of maximizing the query's antecedent mass
  (Region.charnes_cooper), which propagate solves anyway, so it runs no
  phase 1. Where every column lies in q's antecedent, m_q = sum(x) = 1 at
  every point, and the program is the layer's own region with the
  denominator sum(x) = 1 (Charnes and Cooper 1962): the sides are solved
  over it, with no max m solve and no derived region. The upper side is
  solved only where the lower one is 0 or the layer does not descend: a
  layer that descends returns the deeper layer's bounds.
- A layer whose bounds are [0, 1] is the answer: propagate builds no
  pinned layer there and descends no further. Every deeper layer's
  bounds lie in [0, 1], and they hold this layer's, so the answer is
  [0, 1] whatever they are (see _propagate_layer).
- A layer with no class left has the region {sum over no column == 1},
  which linprog's empty-row rule finds infeasible with no start.

Everything on the decision path is exact rational arithmetic: whether a
conclusion interval equals [0, 1] (probabilistic non-informativeness) is a
yes/no question, not a tolerance question. It is int arithmetic up to the
answer: a solve gives its value as an int numerator and denominator and
its support as an int mask, and the forced-zero fixpoint and the max m
test read the numerator. A Fraction is built only for the Charnes-Cooper
values, which are the bounds, and for check_coherence's witness.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ._value import Value
from .events import ConditionalObject, declared, tabulator
from .linprog import Region, solve_lp

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
        Value.__init__(self, obj, lo, hi)


class Assessment(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple = ()):
        Value.__init__(
            self,
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


class Bounds(Value):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = unit_interval(lo, hi, "bounds")
        Value.__init__(self, lo, hi)

    @classmethod
    def _exact(cls, lo, hi) -> "Bounds":
        """The bounds [lo, hi] the solver makes, exact Fractions with 0 <=
        lo <= hi <= 1; nothing is checked."""
        bounds = cls.__new__(cls)
        object.__setattr__(bounds, "lo", lo)
        object.__setattr__(bounds, "hi", hi)
        return bounds

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


class Coherent(Value):
    """witness: the level-0 masses, indexed like constituents(atomset)."""

    __slots__ = ("witness", "atomset")


class Incoherent(Value):
    """The verdict on incoherent premises: level, the zero layer that has
    no solution, and description, its system in prose.

    The solver's verdict (_unsolvable) keeps the layer's world count and
    entries and formats description on its first read, as LPResult does
    its value, since most callers read only the level. ==, hash, repr, copy
    and pickle read description, so they are those of Incoherent(level,
    description) with the text given."""

    __slots__ = ("level", "description", "_layer")

    @classmethod
    def _unsolvable(cls, level, worlds, entries) -> "Incoherent":
        """The verdict that the zero layer at level, over worlds
        constituents, has no solution for its assessment entries."""
        verdict = cls.__new__(cls)
        object.__setattr__(verdict, "level", level)
        object.__setattr__(verdict, "_layer", (worlds, entries))
        return verdict

    def __getattr__(self, name):
        # Only an unset slot gets here: the description of _unsolvable().
        if name != "description":
            raise AttributeError(name)
        worlds, entries = self._layer
        text = (
            f"level-{self.level} system over {worlds} constituents is "
            "unsolvable for entries: "
            + "; ".join(f"p({e.obj}) in [{e.lo}, {e.hi}]" for e in entries)
        )
        object.__setattr__(self, "description", text)
        return text


class IncoherentPremises(ValueError):
    """propagate's error on incoherent premises; certificate is the
    Incoherent verdict. The message is formatted when it is read."""

    def __init__(self, certificate: Incoherent):
        super().__init__(certificate)
        self.certificate = certificate

    def __str__(self):
        return f"premises incoherent: {self.certificate.description}"


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
        Value.__init__(self, theta, tau_high, tau_low)


# --- layer systems -----------------------------------------------------------


class _Layer:
    """One zero-layer system, built once.

    domain: the level-0 worlds the layer covers, as an int mask over the
    world indices 0 .. 2^n - 1, the bits of the truth tables. entries: its
    assessment entries, and tables: per entry the level-0 tables (m, e) of
    its antecedent and of antecedent and consequent (see _tables). extra:
    more tables the columns must tell apart; on the propagate path, the
    query's (m, e).

    reps: the columns, one per class of the worlds of domain that no table
    of tables or extra tells apart, once the worlds a forcing row pins (see
    below) are dropped, each given by its lowest world, its representative,
    in ascending order; cols: their mask. The classes are the worlds left
    split by each table t into their parts inside and outside t, empty
    parts dropped, the constituents generated by the family (Gilio 2002;
    Biazzo and Gilio 2000): every table holds on all of a class or on none
    of it, so rows, objectives and deeper domains read one bit per class,
    the bit of its representative. Only the split holds the classes, as
    int masks. A set of columns is a world mask, an int whose bit r is set
    for the column whose representative is world r; a support read off the
    tableau, bit k for column k, maps to it through reps (worlds). m_cols:
    per entry, the columns where m holds, m & cols. homogeneous: the entry
    rows, each a pair (row, k) of the coefficients of a "<=" row with rhs 0
    in coprime ints, 0 where m fails, and its slack coefficient k:

    - lo*m <= e, for lo = a/b: a - b where e holds, a where m holds and e
      fails, slack coefficient b;
    - e <= hi*m, for hi = c/d: d - c where e holds, -c where m holds and e
      fails, slack coefficient d.

    Each is its rational row with a unit slack (lo - 1 and lo, 1 - hi and
    -hi) scaled by its denominator, so the tableau and every pivot are
    those of the rational rows. A unit slack on the int row would change
    the slack's unit and, through Dantzig's rule, some pivots. region()
    hands them to linprog's Region (see region).

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

    singles: the crash points, the columns where no row built is
    positive, as a world mask: a row lo*m <= e is positive exactly where m
    holds and e fails, and a row e <= hi*m exactly where e holds. Each
    alone is a feasible point. The lowest of them is the crash column that
    region() names, the column linprog's crash start pivots on (Bixby
    1992), and with none the region starts by phase 1.

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
    change.

    A row with no negative coefficient pins every class where it is
    positive at zero mass (the forcing-row rule of LP presolve; Brearley,
    Mitra and Williams 1975, Andersen and Andersen 1995): its rhs is 0 and
    x >= 0. lo*m <= e has none when lo = 1 or e holds on no class, and then
    pins the classes of m where e fails (all of m's when e holds on none);
    e <= hi*m has none when hi = 0 or e holds on every class of m, and then
    pins e's. The layer drops the pinned classes and repeats until no row
    pins a class; the forcing rows are then rows without a positive
    coefficient, and are skipped. Every table is a union of classes, so a
    row pins a class exactly when it pins the class's worlds, and the
    presolve runs on live, a mask of the worlds not yet pinned, before any
    split: e holds on a class left when e & live is not 0, and on every
    class of m left when (m ^ e) & live is 0. Splitting the worlds left
    gives the classes of domain that no row pins, in the same order, so
    the tableau is the one of a layer that splits every world first and
    then drops the pinned classes, and a layer that a forcing row empties
    costs a few mask operations. A pinned class has zero mass
    at every feasible point, so the polytope is the same one in fewer
    columns, and forced sets, levels and bounds, which are properties of
    the polytope, do not change; only the simplex's path and the witness
    vertex may. An entry whose antecedent holds on no class left has m_cols 0:
    its antecedent mass is 0 everywhere, and it is forced with no solve. A
    layer left with no class has no feasible point. domain keeps every
    world, pinned or not: a deeper layer covers the worlds where a forced
    antecedent holds, where a pinned class may carry mass."""

    def __init__(self, entries, tables, domain, extra=()):
        self.entries = entries
        self.tables = tables
        self.domain = domain
        self.extra = extra
        # lo = a/b and hi = c/d; lo > 0 is a > 0, and hi < 1 is c < d
        bounds = [
            (e.lo.numerator, e.lo.denominator, e.hi.numerator, e.hi.denominator)
            for e in entries
        ]
        # held: per entry, the live worlds where e holds and those where m
        # holds and e fails; live: the worlds no forcing row pins
        live = domain
        while True:
            held, pinned = [], 0
            for (m, e), (a, b, c, d) in zip(tables, bounds):
                on_e, off_e = e & live, (m ^ e) & live
                held.append((on_e, off_e))
                if a and off_e and (a == b or not on_e):
                    pinned |= off_e
                if c < d and on_e and (not c or not off_e):
                    pinned |= on_e
            if not pinned:
                break
            live ^= pinned
        classes = [live] if live else []
        for t in [t for pair in (*tables, extra) for t in pair]:
            parts = []
            for c in classes:
                inside = c & t
                if inside and inside != c:
                    # c ^ inside is c & ~t without a negative int, whose &
                    # is an order of magnitude slower on a 2^16-world table
                    parts += (inside, c ^ inside)
                else:
                    parts.append(c)
            classes = parts
        # each class by its lowest world, its representative
        ordered = sorted(zip([(c & -c).bit_length() - 1 for c in classes], classes))
        self.reps = [r for r, _ in ordered]
        classes = [c for _, c in ordered]
        cols = 0
        for r in self.reps:
            cols |= 1 << r
        self.cols = cols
        self.m_cols = []
        self.homogeneous = []
        # the worlds where some row built is positive
        blocked = 0
        for (m, e), (a, b, c, d), (on_e, off_e) in zip(tables, bounds, held):
            self.m_cols.append(m & cols)
            # (coefficient where m holds and e fails, where e holds, slack
            # coefficient) of each row built
            cuts = []
            if a and off_e:
                cuts.append((a, a - b, b))
                blocked |= off_e
            if c < d and on_e:
                cuts.append((-c, d - c, d))
                blocked |= on_e
            for off, on, k in cuts:
                row = [(on if e & w else off) if m & w else 0 for w in classes]
                self.homogeneous.append((row, k))
        self.singles = cols ^ (cols & blocked)

    def region(self) -> Region:
        """The layer's masses summing to 1 under its rows, {x >= 0 :
        sum(x) == 1, row . x <= 0 for each (row, k) of homogeneous} over
        the n classes, started (see linprog's Region).

        Each row is in the form Region takes as built: its rhs is 0, and
        it is coprime with its k: a row lo*m <= e holds a where m holds and
        e fails and has k = b, with gcd(a, b) = 1, and a row e <= hi*m
        holds d - c where e holds and has k = d, with gcd(d - c, d) =
        gcd(c, d) = 1. Its crash column, the lowest of singles, is the
        number of columns below that world; a layer with no crash column
        starts by phase 1. A layer with no class has the row sum(x) == 1
        over no column, and linprog's empty-row rule makes no start for
        it."""
        singles = self.singles
        crash = (self.cols & ((singles & -singles) - 1)).bit_count() if singles else None
        return Region(len(self.reps), self.homogeneous, crash)

    def worlds(self, support):
        """A support read off the layer's tableau, an int mask over its
        columns (bit k for column k), as a mask of worlds: bit reps[k]."""
        reps, mask = self.reps, 0
        while support:
            low = support & -support
            mask |= 1 << reps[low.bit_length() - 1]
            support ^= low
        return mask

    def antecedent_mass(self, indices):
        """Objective: the summed antecedent mass of the given entries."""
        objective = [0] * len(self.reps)
        for i in indices:
            m = self.m_cols[i]
            objective = [v + (m >> r & 1) for v, r in zip(objective, self.reps)]
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
        for r, v in zip(self.reps, x):
            masses[r] = v
        return masses


def _tables(obj, table):
    """The truth tables (m, e) of a conditional object, table being a
    formula's truth table (events.tabulator): m where its antecedent holds,
    e where antecedent and consequent both hold."""
    m = table(obj.antecedent)
    return m, m & table(obj.consequent)


def _mass_row(table, reps):
    """1 on the columns where table holds, read at their representatives
    reps, 0 elsewhere: the mass of an event as an objective."""
    return [table >> r & 1 for r in reps]


def _forced_zero(layer, region, probes=(), res=None):
    """Indices of entries whose conditioning event has zero mass at every
    point of the layer system (region). probes: supports of points of
    region already at hand, as world masks (_Layer.worlds of linprog's
    support()). res, when given, is a solve already made of the first
    round: the summed antecedent mass of all entries, maximized over
    region.

    An iterative fixpoint: maximize the summed antecedent mass over the
    current candidate set; a maximum of zero proves every candidate forced
    (the masses are nonnegative), otherwise drop the candidates that came
    out positive and retry. A single max-sum solve would not do: a vertex
    optimum can park an individual antecedent at zero even though another
    solution gives it positive mass. Positive antecedent mass at any one
    feasible point proves an entry is not forced, so before any solve the
    entries positive at a probe, then at region's start vertex, are
    dropped; the start's probe holds the crash points too (singles). The
    forced set is a property of the polytope, so the probes
    change only how many solves find it. An entry with no antecedent
    column (m_cols 0, its classes pinned by the layer's presolve) has zero
    mass everywhere: once only such entries are left, they are the forced
    set, with no solve.
    """
    candidates = list(range(len(layer.m_cols)))
    if res is not None:
        if not res.numerator:
            return candidates
        probes = [*probes, layer.worlds(res.support())]
    for support in probes:
        candidates = _zero_at(layer, candidates, support)
    if candidates:
        candidates = _zero_at(layer, candidates, layer.singles | layer.worlds(region.support()))
    while any(layer.m_cols[i] for i in candidates):
        res = _optimal(solve_lp(layer.antecedent_mass(candidates), region))
        if not res.numerator:
            return candidates
        candidates = _zero_at(layer, candidates, layer.worlds(res.support()))
    return candidates


def _zero_at(layer, candidates, support):
    """The candidate entries whose antecedent has zero mass at a point with
    the given support."""
    return [i for i in candidates if not layer.m_cols[i] & support]


def _optimal(res, what="layer system"):
    if res.status != "optimal":
        raise RuntimeError(f"{what} unexpectedly {res.status}")
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
            return Incoherent._unsolvable(level, layer.domain.bit_count(), layer.entries)
        forced = _forced_zero(layer, region, res=support)
        if not forced:
            return None
        layer = layer.deeper(forced)
        region = layer.region()
        support = None
        level += 1


def _settled(m, e):
    """[0,0] when e never holds, [1,1] when e holds wherever m does, else
    None: the bounds of a query with tables (m, e) over any atoms that
    include its own. The antecedent is satisfiable by construction, so m is
    not 0."""
    if not e:
        return Bounds._exact(ZERO, ZERO)
    if e == m:
        return Bounds._exact(ONE, ONE)
    return None


def _ratio_bound(scaled, e_row, maximize):
    """The min or max of e_q / m_q over a layer's points with m_q > 0,
    solved over scaled, the layer region's Charnes-Cooper region
    (Region.charnes_cooper from the max m optimum), or the layer's region
    itself where m_q = sum(x) = 1 at every point.

    Charnes-Cooper: scale masses so the antecedent of q carries total mass 1;
    the entry constraints are homogeneous so they survive the scaling, the
    normalization row is replaced by m_q = 1, and the objective becomes
    linear. The objective is e_q(mu) <= m_q(mu) = 1, so the program is
    bounded and its optima are attained by genuine mass vectors. Its region
    starts from max m's optimal tableau, so it needs no phase 1 of its own.
    """
    return _optimal(solve_lp(e_row, scaled, maximize), "Charnes-Cooper program").value


def propagate(a: Assessment, q: ConditionalObject, atomset) -> Bounds:
    """Exact coherent interval for p(q) given a coherent assessment.

    Level-0 bounds come from the linear-fractional program; whenever the
    antecedent of q may (or must) carry zero mass, the zero-layer where it
    becomes positive is searched as well, constrained by the premises that
    are forced to zero alongside it. Its bounds hold those above it, so
    they are the join (see _propagate_layer).
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
    """Bounds on p(q) over one layer and the layers below it; q is the
    query's (m, e) tables and region is layer.region().

    The order: the sides of the layer's own interval that feasible points
    at hand prove (below); where one is still unknown, max m, then the
    Charnes-Cooper lower bound where it is unknown, and the upper one where
    it is unknown and the lower one is 0; where the interval is not [0, 1],
    the pinned layer, that of the points with m_q = 0, whose start decides
    whether min m = 0; where it is feasible, the descent with the entries
    it forces, and otherwise the upper bound, solved if it is still
    unknown.

    Where every column lies in q's antecedent, m_q = sum(x) = 1 at every
    point, so max m is 1 with no solve, and the Charnes-Cooper region, that
    of m_q = 1, is the layer's region: the sides are solved over it. Where
    the layer's domain lies in q's antecedent, the pinned layer would have
    no world, so it is not built, and there is no descent.

    A feasible point with m_q > 0 whose ratio e_q / m_q is 0 proves lo =
    0, and one whose ratio is 1 proves hi = 1, since every ratio lies in
    [0, 1]. Each crash point of the layer alone is a feasible point
    (layer.singles), and the columns tell q's tables apart: one in
    e_q has ratio 1 and proves hi = 1, one in m_q but not in e_q has ratio
    0 and proves lo = 0, and with both the interval is [0, 1] with no
    solve.

    The answer is the join of the own intervals of the layers visited, and
    that join is the deepest one's: each layer's own interval holds the
    one of the layer above it. Take a point x of a layer with m_q > 0, keep
    its masses on the worlds of the next layer (where q's antecedent or the
    antecedent of an entry forced with m_q = 0 holds) and rescale them to
    sum to 1. Each of those entries has its antecedent inside those worlds,
    so its rows, which are homogeneous, hold as they held at x; q's
    antecedent is inside them too, so the result is a point of the next
    layer with m_q > 0 and the e_q / m_q of x. So the next layer's max m is
    positive, and its bounds reach every ratio this layer's do: a descent
    returns the deeper bounds as they are, and a layer that descends needs
    its own interval only to tell whether it is [0, 1]. Where lo > 0 it is
    not, so there the upper bound is solved only once the pinned layer
    shows there is no descent.

    An own interval of [0, 1] is the answer with no pinned layer and no
    descent: a deeper layer's bounds are those of a ratio e_q / m_q of
    masses with 0 <= e_q <= m_q, so they lie in [0, 1], and the join of
    [0, 1] with any interval there is [0, 1]. The tests read the exact
    bounds, so no answer changes, only the solves that find it.
    """
    reps, cols, singles = layer.reps, layer.cols, layer.singles
    m_cols, e_cols = q[0] & cols, q[1] & cols
    lo = ZERO if singles & (m_cols ^ e_cols) else None
    hi = ONE if singles & e_cols else None
    if lo is None or hi is None:
        if m_cols == cols:
            # m_q = sum(x) = 1 at every point: max m is 1, and the region
            # is its own Charnes-Cooper region
            scaled = region
        else:
            max_m = _optimal(solve_lp(_mass_row(q[0], reps), region))
            if not max_m.numerator:
                forced = _forced_zero(layer, region, [layer.worlds(max_m.support())])
                return _descend(layer, forced, q)
            scaled = region.charnes_cooper(max_m)
        e_row = _mass_row(q[1], reps)
        if lo is None:
            lo = _ratio_bound(scaled, e_row, False)
        if lo == ZERO and hi is None:
            hi = _ratio_bound(scaled, e_row, True)
    if lo == ZERO and hi == ONE:
        return Bounds._exact(lo, hi)
    # The points with m_q = 0 are, as x >= 0, those of the layer over the
    # worlds where q's antecedent fails: min m = 0 exactly when it is
    # feasible. Then values settled only at the deeper layer where q's
    # antecedent turns positive remain coherent too, and its forced set is
    # that of this pinned layer. A domain inside q's antecedent leaves it
    # no world, and no point.
    outside = layer.domain ^ (layer.domain & q[0])
    if outside:
        pinned = _Layer(layer.entries, layer.tables, outside)
        pinned_region = pinned.region()
        if pinned_region.support() is not None:
            return _descend(layer, _forced_zero(pinned, pinned_region), q)
    if hi is None:
        hi = _ratio_bound(scaled, e_row, True)
    return Bounds._exact(lo, hi)


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
