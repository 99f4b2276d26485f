"""The scale curve: one propagate per size, each in a fresh process.

    python tools/scale_curve.py [--max N] [OTHER]

The inputs are built from perfbench/workloads.py, which is only read:

- the chain p(A0) >= 9/10, p(A_{i+1} | A_i) >= 9/10 with the query
  (A_{n-1} | A0), for n = 8 .. 16;
- the interval chain, the same with every premise in [8/10, 9/10], for
  n = 6 .. 12.

--max N leaves out every size above N atoms. Each size runs in a child
process of its own, which times the one propagate call, counts its simplex
pivots and coherence's solve_lp calls as tests/solver_counts.py counts them
(a crash start that linprog lays out counts as one pivot), and reads its
own peak RSS (ru_maxrss). A process's ru_maxrss starts from the peak of
the process it was forked from, so the children are started by a small
launcher process, which this script starts before it does anything else:
each child's figure is then its own, or the launcher's if that is higher
(about 10 MB). The script prints one Markdown table. OTHER is the root of
a second checkout (with src/probarg): each size then runs on both trees,
this one first, and the table shows the two side by side with the ratio
of their times, this tree's over OTHER's. The script exits 1 when a
child fails or the two trees' bounds differ on a size.
"""

from __future__ import annotations

import json
import subprocess
import sys

LAUNCHER = """
import subprocess, sys
for line in sys.stdin:
    out = subprocess.run(line.rstrip("\\n").split("\\0"), capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    sys.stdout.write(out.stdout.strip() + "\\n" if out.returncode == 0 else "\\n")
    sys.stdout.flush()
"""

CHAIN_SIZES = range(8, 17)
INTERVAL_SIZES = range(6, 13)


def child(root, kind, n):
    """Run one size in this process against the package under root and
    print what it took as one JSON line."""
    import resource
    from fractions import Fraction
    from pathlib import Path
    from time import perf_counter

    here = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(Path(root) / "src"), str(here / "perfbench")]
    import workloads

    from probarg import coherence, linprog
    from probarg.coherence import Assessment, AssessmentEntry

    a, q, atoms = workloads.chain_inputs(n, Fraction(9, 10))
    if kind == "interval chain":
        interval = Fraction(8, 10), Fraction(9, 10)
        a = Assessment(tuple(AssessmentEntry(e.obj, *interval) for e in a.entries))
    counts = {"pivots": 0, "solves": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return wrapper

    linprog._pivot = counted("pivots", linprog._pivot)
    if hasattr(linprog, "_crash_start"):
        linprog._crash_start = counted("pivots", linprog._crash_start)
    coherence.solve_lp = counted("solves", coherence.solve_lp)
    start = perf_counter()
    bounds = coherence.propagate(a, q, atoms)
    ms = (perf_counter() - start) * 1000
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"ms": ms, "rss_mb": rss_mb, "bounds": str(bounds), **counts}))


def main(argv):
    # The launcher starts first, while this process is at its smallest.
    launcher = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max", type=int, default=max(CHAIN_SIZES), help="largest size run")
    parser.add_argument("other", nargs="?", help="root of a second checkout")
    args = parser.parse_args(argv)
    trees = [str(Path(__file__).resolve().parent.parent)]
    if args.other:
        trees.append(str(Path(args.other).resolve()))
    runs = [("chain", n) for n in CHAIN_SIZES if n <= args.max]
    runs += [("interval chain", n) for n in INTERVAL_SIZES if n <= args.max]
    head = "| input | atoms | pivots | solves | ms | peak RSS MB |"
    rule = "|---|---:|---:|---:|---:|---:|"
    if args.other:
        head += " pivots, other | solves, other | ms, other | peak RSS MB, other | ms ratio |"
        rule += "---:|---:|---:|---:|---:|"
    print("### Scale curve\n")
    print(head)
    print(rule)
    failed = False
    for kind, n in runs:
        cells = []
        for root in trees:
            command = [sys.executable, __file__, "--child", root, kind, str(n)]
            launcher.stdin.write("\0".join(command) + "\n")
            launcher.stdin.flush()
            line = launcher.stdout.readline().strip()
            if not line:
                failed = True
                cells.append(None)
                continue
            cells.append(json.loads(line))
        row = f"| {kind} | {n} |"
        for got in cells:
            if got is None:
                row += " failed | | | |"
            else:
                row += f" {got['pivots']} | {got['solves']} | {got['ms']:.1f} |"
                row += f" {got['rss_mb']:.1f} |"
        if len(cells) == 2 and None not in cells:
            row += f" {cells[0]['ms'] / cells[1]['ms']:.2f} |"
            if cells[0]["bounds"] != cells[1]["bounds"]:
                failed = True
                differ = f"{kind} n = {n}: bounds {cells[0]['bounds']} against {cells[1]['bounds']}"
                print(differ, file=sys.stderr)
        elif len(cells) == 2:
            row += " |"
        print(row, flush=True)
    launcher.stdin.close()
    launcher.wait()
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main(sys.argv[1:]))
