"""Time `probarg corpus` processes from two checkouts against each other.

    python tools/ab_cli.py BASE NEW [--pairs N] [--rounds R]

BASE and NEW are checkout roots (each with src/probarg). Each command runs
as a user runs it, `python -m probarg corpus ...` in a fresh interpreter
with the checkout's src/ as PYTHONPATH, so a time includes interpreter
start, import and exit, which tools/ab_inprocess.py cannot see. The
commands are the text and the --json report at two thetas, 9/10 (the
default) and 4/5.

One unmeasured run of each command per side writes the bytecode caches,
as an installed package has them. Then, pinned to one CPU, the script runs
N pairs (default 10). In a pair, each command runs R times (default 3) on
each side, base and new back to back, in an order that alternates from
pair to pair. A side's sample for the pair is the median wall time of its
processes there; new wins the pair when its sample is lower. Every run's
stdout is compared with the base side's first one, and the script exits 1
if any differs by a byte or any process exits nonzero.

It prints each side's median and quartiles over the pairs, the ratio of
the medians, new / base (below 1 means NEW is faster), and the pairs new
won.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

COMMANDS = (
    ["corpus"],
    ["corpus", "--json"],
    ["corpus", "--theta", "4/5"],
    ["corpus", "--theta", "4/5", "--json"],
)
TIMEOUT_S = 120


def side_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run(root: Path, env: dict, argv: list) -> tuple:
    """(wall seconds, stdout bytes) of one `python -m probarg` process;
    RuntimeError when it exits nonzero."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "probarg", *argv],
        cwd=root, env=env, capture_output=True, timeout=TIMEOUT_S,
    )
    wall = perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(
            f"{root}: probarg {' '.join(argv)} exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-300:]}"
        )
    return wall, proc.stdout


def quartiles(samples) -> tuple:
    """(q1, median, q3), inclusive quartiles; one sample is all three."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def measure(roots, pairs: int, rounds: int) -> list:
    """[(base s, new s)] per pair, each the median of the side's processes
    in the pair. RuntimeError on a failed process or a differing stdout."""
    envs = [side_env(root) for root in roots]
    expected = [run(roots[0], envs[0], argv)[1] for argv in COMMANDS]
    for argv, want in zip(COMMANDS, expected):
        if run(roots[1], envs[1], argv)[1] != want:
            raise RuntimeError(f"probarg {' '.join(argv)}: the two trees print different output")
    samples = []
    for p in range(pairs):
        order = (0, 1) if p % 2 == 0 else (1, 0)
        times = ([], [])
        for _ in range(rounds):
            for argv, want in zip(COMMANDS, expected):
                for side in order:
                    wall, out = run(roots[side], envs[side], argv)
                    if out != want:
                        raise RuntimeError(
                            f"{roots[side]}: probarg {' '.join(argv)} printed different output"
                        )
                    times[side].append(wall)
        samples.append((statistics.median(times[0]), statistics.median(times[1])))
    return samples


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="ab_cli.py", description="A/B timing of `probarg corpus` processes"
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.rounds < 1:
        parser.error("--pairs and --rounds must be at least 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # one CPU, for the children too
    roots = (args.base.resolve(), args.new.resolve())
    try:
        samples = measure(roots, args.pairs, args.rounds)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(
        f"{args.pairs} pairs x {args.rounds} rounds of {len(COMMANDS)} `probarg corpus` "
        "commands, one CPU, order alternating by pair; ms per process"
    )
    print(f"{'side':<6} {'q1':>8} {'median':>8} {'q3':>8}")
    medians = []
    for name, i in (("base", 0), ("new", 1)):
        q1, med, q3 = quartiles([s[i] for s in samples])
        medians.append(med)
        print(f"{name:<6} {q1 * 1e3:>8.2f} {med * 1e3:>8.2f} {q3 * 1e3:>8.2f}")
    won = sum(1 for base, new in samples if new < base)
    print(f"new/base median {medians[1] / medians[0]:.4f}; new won {won} of {len(samples)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
