"""Inputs, operations and correctness checks of the three workloads.

Every input is generated here, from the workload seed, and the package only
ever receives the generated objects (or a CLI argv). Every answer is an exact
rational, so every check is an exact comparison against a value recorded at
the seed commit by record.py; there is no tolerance anywhere.

Formulas are built here as nested tuples and evaluated by this module's own
evaluator, so the witness check does not trust the package's evaluator.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

WORKLOADS = ("corpus-cli", "chain-scale", "random-assess")

# --- corpus-cli ---------------------------------------------------------------

CORPUS_THETAS = ("9/10", "4/5", "7/10", "19/20")
CORPUS_FORMATS = ("txt", "json")


def corpus_argv(theta: str, fmt: str) -> list:
    """argv of `probarg corpus` for one (theta, format); 9/10 is the default,
    so that op is the plain headline command."""
    argv = ["corpus"]
    if theta != "9/10":
        argv += ["--theta", theta]
    if fmt == "json":
        argv.append("--json")
    return argv


def corpus_expected_name(theta: str, fmt: str) -> str:
    return f"corpus_{theta.replace('/', '_')}.{fmt}"


def corpus_expected(root: Path) -> dict:
    """(theta, fmt) -> expected stdout bytes: the goldens at 9/10, outputs
    recorded at the seed commit for the other thetas."""
    out = {}
    for theta in CORPUS_THETAS:
        for fmt in CORPUS_FORMATS:
            if theta == "9/10":
                path = root / "tests" / "golden" / f"corpus.{fmt}"
            else:
                path = EXPECTED / corpus_expected_name(theta, fmt)
            out[(theta, fmt)] = path.read_bytes()
    return out


def corpus_rounds(seed: int):
    """Endless rounds; each round is the 8 (theta, format) pairs in a seeded
    order, so every round does the same work."""
    rng = random.Random(f"corpus-cli:{seed}")
    pairs = [(t, f) for t in CORPUS_THETAS for f in CORPUS_FORMATS]
    while True:
        rng.shuffle(pairs)
        yield list(pairs)


# --- chain-scale --------------------------------------------------------------

CHAIN_SIZES = (3, 4, 5, 6)
CHAIN_THETAS = tuple(Fraction(k, 100) for k in range(70, 100))


def chain_inputs(n: int, theta: Fraction):
    """p(A0) >= theta, p(A_{i+1} | A_i) >= theta; query (A_{n-1} | A0)."""
    from probarg.coherence import Assessment, AssessmentEntry
    from probarg.events import TOP, Atom, ConditionalObject

    atoms = [Atom(f"A{i}") for i in range(n)]
    entries = [AssessmentEntry(ConditionalObject(atoms[0], TOP), theta, 1)]
    for i in range(n - 1):
        entries.append(
            AssessmentEntry(ConditionalObject(atoms[i + 1], atoms[i]), theta, 1)
        )
    query = ConditionalObject(atoms[-1], atoms[0])
    return Assessment(tuple(entries)), query, tuple(a.name for a in atoms)


def chain_expected() -> dict:
    """(n, theta) -> (lo, hi) as recorded at the seed commit."""
    data = json.loads((EXPECTED / "chain.json").read_text())
    return {
        (int(n), Fraction(theta)): (Fraction(lo), Fraction(hi))
        for n, by_theta in data.items()
        for theta, (lo, hi) in by_theta.items()
    }


def chain_rounds(seed: int):
    """Rounds of one op per size, smallest first. Each size walks its own
    seeded permutation of CHAIN_THETAS, so no two ops of a run share an input
    until a run outlasts len(CHAIN_THETAS) rounds."""
    rng = random.Random(f"chain-scale:{seed}")
    orders = {n: rng.sample(CHAIN_THETAS, len(CHAIN_THETAS)) for n in CHAIN_SIZES}
    r = 0
    while True:
        yield [(n, orders[n][r % len(CHAIN_THETAS)]) for n in CHAIN_SIZES]
        r += 1


# --- random-assess ------------------------------------------------------------

ASSESS_SIZES = (2, 3, 4, 5)
# Items per size, recorded in expected/random_assess.json. About what a 30 s
# run gets through at the seed, so that runs of different seeds see nearly
# the same items, in different orders: the items' costs spread widely, and
# with a pool three times as large the mix alone moved a run's median by 15%
# from one seed to another.
ASSESS_POOL = 200
ASSESS_PER_SIZE = 6  # ops per size in one round
ATOM_NAMES = ("A", "B", "C", "D", "E")
TENTHS = tuple(Fraction(k, 10) for k in range(11))


def f_eval(f, world) -> bool:
    kind = f[0]
    if kind == "atom":
        return world[f[1]]
    if kind == "not":
        return not f_eval(f[1], world)
    if kind == "and":
        return f_eval(f[1], world) and f_eval(f[2], world)
    if kind == "or":
        return f_eval(f[1], world) or f_eval(f[2], world)
    if kind == "imp":
        return (not f_eval(f[1], world)) or f_eval(f[2], world)
    return True  # ("top",)


def f_atoms(f) -> set:
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(f_atoms(g) for g in f[1:])) if len(f) > 1 else set()


def worlds(names):
    """Valuations in the package's documented constituent order: first atom
    most significant, False before True."""
    return [
        dict(zip(names, bits))
        for bits in itertools.product((False, True), repeat=len(names))
    ]


def to_package(f):
    from probarg import events

    kind = f[0]
    if kind == "atom":
        return events.Atom(f[1])
    if kind == "not":
        return events.Not(to_package(f[1]))
    if kind == "top":
        return events.TOP
    cls = {"and": events.And, "or": events.Or, "imp": events.MaterialImp}[kind]
    return cls(to_package(f[1]), to_package(f[2]))


def _rand_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.35:
        lit = ("atom", rng.choice(names))
        return ("not", lit) if rng.random() < 0.3 else lit
    op = rng.choice(("and", "or", "imp", "not"))
    if op == "not":
        return ("not", _rand_formula(rng, names, depth - 1))
    return (op, _rand_formula(rng, names, depth - 1), _rand_formula(rng, names, depth - 1))


def _rand_antecedent(rng, names):
    if rng.random() < 0.35:
        return ("top",)
    ws = worlds(names)
    while True:
        f = _rand_formula(rng, names, rng.randint(0, 1))
        if any(f_eval(f, w) for w in ws):  # the package rejects unsatisfiable ones
            return f


def _rand_interval(rng):
    u = rng.random()
    if u < 0.07:
        return Fraction(0), Fraction(0)
    if u < 0.14:
        return Fraction(1), Fraction(1)
    draws = [rng.choice(TENTHS) for _ in range(3)]
    return min(draws), max(draws)


def assess_item(n: int, index: int) -> dict:
    """Pool item `index` of size n: declared atoms, entries, query.

    A third of the items declare one or two atoms that nothing uses; the
    `padded` flag records whether any declared atom goes unmentioned by the
    entries and the query. The item depends on (n, index) only, so the
    answers recorded in expected/ hold for every run seed.
    """
    rng = random.Random(f"random-assess:{n}:{index}")
    declared = ATOM_NAMES[:n]
    pad = rng.randint(1, min(2, n - 1)) if rng.random() < 1 / 3 else 0
    used = rng.sample(declared, n - pad)
    entries = []
    for _ in range(rng.randint(2, min(4, n + 1))):
        cons = _rand_formula(rng, used, rng.randint(0, 2))
        ante = _rand_antecedent(rng, used)
        lo, hi = _rand_interval(rng)
        entries.append((cons, ante, lo, hi))
    query = (_rand_formula(rng, used, rng.randint(0, 2)), _rand_antecedent(rng, used))
    mentioned = set()
    for cons, ante, _, _ in entries:
        mentioned |= f_atoms(cons) | f_atoms(ante)
    mentioned |= f_atoms(query[0]) | f_atoms(query[1])
    return {
        "declared": declared,
        "entries": entries,
        "query": query,
        "padded": bool(set(declared) - mentioned),
    }


def assess_inputs(item: dict):
    from probarg.coherence import Assessment, AssessmentEntry
    from probarg.events import ConditionalObject

    entries = tuple(
        AssessmentEntry(ConditionalObject(to_package(c), to_package(a)), lo, hi)
        for c, a, lo, hi in item["entries"]
    )
    q_cons, q_ante = item["query"]
    query = ConditionalObject(to_package(q_cons), to_package(q_ante))
    return Assessment(entries), query, item["declared"]


def assess_expected() -> dict:
    """(n, index) -> recorded answers; see record.py for the fields."""
    data = json.loads((EXPECTED / "random_assess.json").read_text())
    return {
        (int(n), i): rec for n, recs in data.items() for i, rec in enumerate(recs)
    }


def assess_order(n: int, rng) -> list:
    """The ops of size n's pool in a seeded, stratified order. Item i runs
    the check path when i is even and the eval path when it is odd. Ops are
    grouped by path, number of entries, verdict and whether they descend a
    zero layer, and each group is spread evenly along the order, so every
    stretch of it holds each group in proportion. The slowest ops (mostly
    eval, 4 entries, coherent, descending) fall in a few of these groups;
    with a plain shuffle, which of them a 30 s run reached depended on the
    seed, and the p95 latency of ten seeds had a spread of 0.16."""
    expected = assess_expected()
    groups = {}
    for i in range(ASSESS_POOL):
        rec = expected[(n, i)]
        key = (i % 2, len(assess_item(n, i)["entries"]), rec["verdict"], rec["descends"])
        groups.setdefault(key, []).append(i)
    spread = []
    for members in groups.values():
        rng.shuffle(members)
        spread += [((k + rng.random()) / len(members), i) for k, i in enumerate(members)]
    return [(n, i, "eval" if i % 2 else "check") for _, i in sorted(spread)]


def assess_rounds(seed: int):
    """Rounds of ASSESS_PER_SIZE ops per size, sizes interleaved. Each size
    walks its assess_order, so ops repeat an input only after ASSESS_POOL
    ops of that size."""
    rng = random.Random(f"random-assess:{seed}")
    orders = {n: assess_order(n, rng) for n in ASSESS_SIZES}
    pos = 0
    while True:
        yield [
            orders[n][(pos + k) % ASSESS_POOL] for k in range(ASSESS_PER_SIZE) for n in ASSESS_SIZES
        ]
        pos += ASSESS_PER_SIZE


def witness_valid(item: dict, witness) -> bool:
    """Non-negative level-0 masses over the declared constituents that sum
    to one and satisfy lo*m <= e <= hi*m for every entry."""
    ws = worlds(item["declared"])
    if len(witness) != len(ws):
        return False
    masses = [Fraction(x) for x in witness]
    if any(x < 0 for x in masses) or sum(masses) != 1:
        return False
    for cons, ante, lo, hi in item["entries"]:
        m = sum((x for x, w in zip(masses, ws) if f_eval(ante, w)), Fraction(0))
        e = sum(
            (x for x, w in zip(masses, ws) if f_eval(ante, w) and f_eval(cons, w)),
            Fraction(0),
        )
        if not (lo * m <= e <= hi * m):
            return False
    return True


def rounds(workload: str, seed: int):
    return {
        "corpus-cli": corpus_rounds,
        "chain-scale": chain_rounds,
        "random-assess": assess_rounds,
    }[workload](seed)


# Rounds in one traced run: a fixed amount of work, so counts can repeat.
TRACE_ROUNDS = {"corpus-cli": 1, "chain-scale": 3, "random-assess": 8}


def trace_rounds(workload: str, seed: int) -> list:
    gen = rounds(workload, seed)
    return [next(gen) for _ in range(TRACE_ROUNDS[workload])]


# --- running one op -----------------------------------------------------------


def attempt(run_op, op):
    """run_op(op) -> (start, end, ok, detail), start and end being the
    perf_counter() readings around the timed call; an unexpected exception
    counts as a failed op."""
    try:
        return run_op(op)
    except Exception as err:
        return 0.0, 0.0, False, f"{op!r} raised {err!r}"


class Runner:
    """Runs and checks the in-process ops of chain-scale and random-assess.

    `run(op)` returns (start, end, ok, detail). Only the package calls are
    timed; building inputs and checking outputs happen outside the clock.
    """

    def __init__(self, workload: str):
        from probarg import coherence

        self.coherence = coherence
        self.workload = workload
        if workload == "chain-scale":
            self.expected = chain_expected()
        else:
            self.expected = assess_expected()

    def run(self, op):
        from time import perf_counter

        if self.workload == "chain-scale":
            n, theta = op
            assessment, query, atoms = chain_inputs(n, theta)
            t0 = perf_counter()
            bounds = self.coherence.propagate(assessment, query, atoms)
            t1 = perf_counter()
            want = self.expected[(n, theta)]
            got = (bounds.lo, bounds.hi)
            return t0, t1, got == want, f"n={n} theta={theta} got {got} want {want}"
        n, index, path = op
        item = assess_item(n, index)
        want = self.expected[(n, index)]
        assessment, query, atoms = assess_inputs(item)
        if path == "check":
            t0 = perf_counter()
            verdict = self.coherence.check_coherence(assessment, atoms)
            t1 = perf_counter()
            ok = self._check_verdict(item, want, verdict)
            return t0, t1, ok, f"check n={n} item={index} got {verdict!r}"
        t0 = perf_counter()
        try:
            bounds = self.coherence.propagate(assessment, query, atoms)
            category = self.coherence.classify(bounds)
        except self.coherence.IncoherentPremises:
            t1 = perf_counter()
            return t0, t1, want["verdict"] == "incoherent", f"eval n={n} item={index} raised incoherent"
        t1 = perf_counter()
        got = [str(bounds.lo), str(bounds.hi), category.value]
        ok = want["verdict"] == "coherent" and got == [want["lo"], want["hi"], want["category"]]
        return t0, t1, ok, f"eval n={n} item={index} got {got} want {want}"

    def _check_verdict(self, item, want, verdict) -> bool:
        if isinstance(verdict, self.coherence.Incoherent):
            return want["verdict"] == "incoherent" and verdict.level == want["level"]
        if not isinstance(verdict, self.coherence.Coherent):
            return False
        return (
            want["verdict"] == "coherent"
            and tuple(verdict.atomset) == tuple(item["declared"])
            and witness_valid(item, verdict.witness)
        )
