"""Regenerate the benchmark's results and check them as they are accepted.

    python3 perfbench/sweep.py --out perfbench/results/baseline.json

For each workload it makes two sets of `run.py --trace 0` runs over seeds
1..10, each of run_seconds from BENCHMARK.json, interleaved: set A seed k,
then set B seed k. For each set it reports every end-to-end metric's median,
quartiles (statistics.quantiles, n=4) and spread: the quartile distance as a
share of the median. It then makes two `run.py --trace 1` runs and checks
that every per-layer count is the same in both.

It exits 1 if any run fails, any count differs, any spread of either set
exceeds its metric's bound, or the medians of the two sets differ by more
than the bound, in either direction. No metric is exempt. The (workload,
metric) pairs that fail are listed at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = ("A", "B")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        result["correct"] = False
    return env, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    summary = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    ok, unresolved = True, []
    for workload in (w["name"] for w in spec["workloads"]):
        values = {s: {} for s in SETS}
        attempted = failed = 0
        for seed in SEEDS:
            for s in SETS:
                env, result = run(workload, seed, seconds, 0)
                summary.setdefault("env", env)
                ok &= result["correct"]
                attempted += result.get("attempted", 0)
                failed += result.get("failed", 0)
                for name, m in result.get("metrics", {}).items():
                    values[s].setdefault(name, []).append(m["value"])
                print(f"{workload} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result.get("metrics", {}).items()), flush=True)
        rows = {}
        for name in units:
            row = {"bound": bounds[name]}
            for s in SETS:
                vals = values[s].get(name, [])
                if len(vals) < 2:
                    row[s] = None
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                row[s] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}
            if row["A"] is None or row["B"] is None:
                good = False
                row["medians_differ"] = None
                print(f"  {workload:<13} {name:<12} MISSING", flush=True)
            else:
                differ = abs(row["B"]["median"] - row["A"]["median"]) / row["A"]["median"]
                row["medians_differ"] = differ
                spread = max(row["A"]["spread"], row["B"]["spread"])
                good = spread <= bounds[name] and differ <= bounds[name]
                steady = "steady" if max(spread, differ) <= bounds[name] / 3 else "wide"
                print(f"  {workload:<13} {name:<12} median A {row['A']['median']:<10.5g} "
                      f"B {row['B']['median']:<10.5g} {units[name]:<4} differ {differ:6.3f}  "
                      f"spread A {row['A']['spread']:6.3f} B {row['B']['spread']:6.3f}  "
                      f"bound {bounds[name]:.2f}  {steady if good else 'OVER'}", flush=True)
            if not good:
                unresolved.append(f"{workload} {name}")
            ok &= good
            rows[name] = row
        fail_ratio = failed / attempted if attempted else 1.0
        print(f"  {workload:<13} fail_ratio   {fail_ratio:g} ({failed} of {attempted} ops)", flush=True)
        traced = [run(workload, SEEDS[0], seconds, 1)[1] for _ in range(2)]
        counts = [
            {k: m["value"] for k, m in t.get("metrics", {}).items() if m["unit"] == "count"}
            for t in traced
        ]
        repeat = counts[0] == counts[1] and all(t["correct"] for t in traced)
        ok &= repeat
        print(f"  {workload:<13} traced twice: counts {'repeat exactly' if repeat else 'DIFFER'}",
              flush=True)
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "fail_ratio": fail_ratio,
            "attempted": attempted,
            "per_layer": [t.get("metrics", {}) for t in traced],
            "counts_repeat": repeat,
        }
    summary["unresolved"] = unresolved
    print("over their bound: " + (", ".join(unresolved) if unresolved else "none"), flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
