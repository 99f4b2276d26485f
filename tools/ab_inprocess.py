"""Time two checkouts of probarg against each other in one process.

    python tools/ab_inprocess.py BASE NEW

BASE and NEW are checkout roots (each with src/probarg). Both packages are
loaded side by side, as probarg_base and probarg_new, and run the same
inputs, built from this checkout's perfbench/workloads.py, which is only
read. The ops come in three groups:

- pool: each item of the random-assess pool (800 items over 2..5 atoms),
  check_coherence on even items, propagate and classify on odd ones;
- chain n: propagate on the chain over n = 3..6 atoms, at each of the
  chain-scale thetas, and over n = 8 and 10 atoms, at every sixth of them:
  the scale curve past the benchmark's largest chain;
- corpus report: the agreement report and its text and JSON renderings,
  at each of the corpus-cli thetas.

First each op's result is compared as a repr, and the script exits 1 if
the two trees disagree on any. Then, pinned to one CPU, every op runs in
9 rounds, base and new back to back in alternating order, and each op
keeps its minimum; the timed ops make no repr. Per group it sums those
minima on each side and takes their ratio, new / base: below 1 means NEW
is faster.

The tree loaded second can read faster than the one loaded first, so the
script runs this twice, in two child processes: one loads BASE first, the
other NEW first. It prints both tables, then per group the geometric mean
of the two ratios, and under them the spread an A/A run reads. On a host
whose speed drifts between runs, this sizes a change of a few percent that
separate benchmark runs cannot.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))
import workloads  # noqa: E402

ROUNDS = 9
# The chains past chain-scale's sizes, each at a few of its thetas.
SCALE_SIZES = (8, 10)
SCALE_THETAS = workloads.CHAIN_THETAS[::6]
# What a run of a tree against itself reads, and the note printed with it.
AA_NOTE = """An A/A run (one tree against itself) reads 0.97-1.02 on each group. The
pool group can still stray: one pool ratio outside 0.95-1.05 from a single
run is not evidence; repeat the run."""
# The two load orders, each run in its own child process.
ORDERS = ("base-first", "new-first")
# The modules the ops and workloads.py read.
SUBMODULES = ("events", "coherence", "corpus")


def load(root: Path, name: str):
    """The package under root/src/probarg, imported as name."""
    src = root / "src" / "probarg"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return package


@contextmanager
def as_probarg(package):
    """workloads imports probarg by name: let that name be package."""
    name = package.__name__
    saved = {k: v for k, v in sys.modules.items() if k == "probarg" or k.startswith("probarg.")}
    sys.modules["probarg"] = package
    for sub in SUBMODULES:
        sys.modules[f"probarg.{sub}"] = sys.modules[f"{name}.{sub}"]
    try:
        yield
    finally:
        for k in [k for k in sys.modules if k == "probarg" or k.startswith("probarg.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def ops(package):
    """(group, op) pairs, the op a call with no arguments."""
    coherence, corpus = package.coherence, package.corpus
    with as_probarg(package):
        pool = [
            (index % 2, *workloads.assess_inputs(workloads.assess_item(n, index)))
            for n in workloads.ASSESS_SIZES
            for index in range(workloads.ASSESS_POOL)
        ]
        chains = [
            (n, workloads.chain_inputs(n, t))
            for n in workloads.CHAIN_SIZES
            for t in workloads.CHAIN_THETAS
        ]
        chains += [(n, workloads.chain_inputs(n, t)) for n in SCALE_SIZES for t in SCALE_THETAS]

    def assess(odd, a, q, atoms):
        if not odd:
            return coherence.check_coherence(a, atoms)
        try:
            bounds = coherence.propagate(a, q, atoms)
        except coherence.IncoherentPremises as err:
            return err.certificate
        return bounds, coherence.classify(bounds)

    def report(theta):
        got = corpus.agreement_report(coherence.ClassificationConfig(theta=Fraction(theta)))
        text = json.dumps(corpus.report_structured(got), indent=2, sort_keys=True)
        return corpus.report_text(got) + text

    named = [("pool", lambda item=item: assess(*item)) for item in pool]
    named += [
        (f"chain n = {n}", lambda args=args: coherence.propagate(*args)) for n, args in chains
    ]
    named += [("corpus report", lambda t=t: report(t)) for t in workloads.CORPUS_THETAS]
    return named


def measure(roots, first) -> dict | None:
    """group -> [base s, new s], the sums of each op's minimum, with the
    tree at roots[first] loaded first; None when the trees disagree."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # one CPU
    sides = ("base", "new")
    order = (first, 1 - first)
    loaded = {i: ops(load(Path(roots[i]).resolve(), f"probarg_{sides[i]}")) for i in order}
    pairs = [(group, base, new) for (group, base), (_, new) in zip(loaded[0], loaded[1])]
    for group, base, new in pairs:
        if repr(base()) != repr(new()):
            print(f"{group}: the two trees give different results", file=sys.stderr)
            return None
    best = [[float("inf")] * 2 for _ in pairs]
    for r in range(ROUNDS):
        gc.collect()
        for times, (_, *op) in zip(best, pairs):
            for side in (r % 2, 1 - r % 2):
                t0 = perf_counter()
                op[side]()
                times[side] = min(times[side], perf_counter() - t0)
    sums = {}
    for (group, _, _), times in zip(pairs, best):
        total = sums.setdefault(group, [0.0, 0.0])
        total[0] += times[0]
        total[1] += times[1]
    return sums


def main(argv) -> int:
    if len(argv) == 3 and argv[0] in ORDERS:
        # a child: one load order, its sums as JSON
        sums = measure(argv[1:], ORDERS.index(argv[0]))
        print(json.dumps(sums))
        return 1 if sums is None else 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    runs = {}
    for order in ORDERS:
        child = subprocess.run(
            [sys.executable, __file__, order, *argv], stdout=subprocess.PIPE, text=True
        )
        if child.returncode != 0:
            return 1
        runs[order] = json.loads(child.stdout)
    ratios = {}
    for order, sums in runs.items():
        print(f"{order}: sum over each group's ops of the op's min of {ROUNDS} rounds, interleaved")
        print(f"{'group':<16} {'base ms':>10} {'new ms':>10} {'new/base':>9}")
        for group, (base, new) in sums.items():
            ratios.setdefault(group, []).append(new / base)
            print(f"{group:<16} {base * 1e3:>10.2f} {new * 1e3:>10.2f} {new / base:>9.4f}")
        print()
    print("geometric mean of the two orders' new/base")
    for group, (a, b) in ratios.items():
        print(f"{group:<16} {math.sqrt(a * b):>9.4f}")
    print()
    print(AA_NOTE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
