"""probarg benchmark: one run of one workload.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0

Run from anywhere inside a probarg checkout; it uses the package in src/
as it is, with the interpreter that runs this script. With --trace 0 it
measures the end-to-end metrics for --seconds seconds; with --trace 1 it
runs a fixed set of ops twice, each op (or round) once untraced and once
traced in a fresh process, and reports the per-layer metrics. Either way
every op's output is checked exactly. The report goes to stdout; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every op was correct (and, with
--trace 1, every per-layer count repeated). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

# Fixed tail percentile per workload: the highest one that left at least ten
# ops beyond it in the slowest --seconds 30 runs at the seed commit. It is
# fixed, not re-chosen per run, so two commits are compared at the same
# percentile. On chain-scale it falls among the n = 5 ops whatever the
# number of rounds, because every round holds one op per size.
TAIL_PCT = {"corpus-cli": 55, "chain-scale": 55, "random-assess": 95}
SETUP_PAIRS = 3  # before the timed phase; more follow between its rounds
SETUP_EVERY_S = 3.0
DEADLINE_S = 170  # a run must end within 180 s
CLI_TIMEOUT_S = 120

# The host's speed swings by up to 2x within seconds, each CPU on its own (a
# shared 2-core KVM guest whose CPU time tracks wall time, so the swings are
# not scheduling). So a run keeps to one CPU, and every timing is scaled to a
# nominal speed by a reference of the same kind measured on that CPU at the
# same time: an op by REF_LOOP_S over the time of the ref_loop() samples
# taken while it ran or around it (see HostSpeed), a set-up launch by
# BARE_LAUNCH_S over the time of a bare interpreter launched just before it.
# Both nominal times are the references' typical times on that host. The raw
# figures are printed beside the metrics.
REF_LOOP_S = 0.0025
BARE_LAUNCH_S = 0.065
SAMPLE_EVERY_S = 0.1


class Overtime(BaseException):
    """Raised by SIGALRM when a run outlives DEADLINE_S."""


def child_env() -> dict:
    """The environment of every process a run starts: the checkout's src/ on
    the path, bytecode caches written (as an installed package has them) and
    stdout buffered, whatever the calling shell sets."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def preflight(workload: str):
    need = [SRC / "probarg" / "cli.py", ROOT / "BENCHMARK.json"]
    if workload == "corpus-cli":
        need += [ROOT / "tests" / "golden" / "corpus.txt", ROOT / "tests" / "golden" / "corpus.json"]
    missing = [str(p.relative_to(ROOT)) for p in need if not p.is_file()]
    if missing:
        sys.exit(f"error: not a probarg checkout, missing {', '.join(missing)}")


def declared_metrics(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def environment(seed: int) -> dict:
    """Python, nproc, commit, seed and src/ line counts of this run."""
    files = sorted(p for p in (SRC / "probarg").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    lines = {
        p.name: len(p.read_text().splitlines()) for p in files if p.suffix == ".py"
    }
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def ref_loop():
    """A fixed exact-rational elimination: the same kind of work as the
    package's simplex pivots, and nothing from the package."""
    m = [[Fraction(i * 7 + j * 3 + 1, i + j + 2) for j in range(10)] for i in range(7)]
    for r in range(7):
        row = [x / m[r][r] for x in m[r]]
        for i in range(7):
            if i != r:
                f = m[i][r]
                m[i] = [a - f * b for a, b in zip(m[i], row)]


class HostSpeed:
    """Times ref_loop() on the run's CPU, to scale the ops timed beside it.

    On the in-process workloads a real-time timer takes a sample every
    SAMPLE_EVERY_S, inside ops as well as between them, and enforces the
    run's deadline, since it owns the timer while it runs. On corpus-cli
    the samples come in threes between ops instead: with samples taken
    while a CLI child ran on the same CPU, the scaled median latency of
    corpus-cli moved by 25% from one run to the next.
    """

    def __init__(self, deadline: float, in_ops: bool):
        self.deadline = deadline
        self.in_ops = in_ops
        self.starts, self.times = [], []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        if t0 > self.deadline:
            raise Overtime()
        ref_loop()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def _burst(self):
        for _ in range(3):
            self._tick(None, None)

    def round_start(self):
        self._burst()
        if self.in_ops:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def after_op(self):
        if not self.in_ops:
            self._burst()

    def round_end(self):
        if self.in_ops:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, t0: float, t1: float) -> tuple:
        """(raw, scaled) seconds of an op timed from t0 to t1. Samples taken
        inside the op are subtracted from it. It is scaled by the harmonic
        mean of those samples and of the three on either side: the work
        done in a stretch of time is its length times the speed, which is
        1 / the sample time, and a sample slowed by an interrupt counts for
        less. Call once sampling has stopped."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        raw = t1 - t0 - sum(self.times[i:j])
        return raw, raw * REF_LOOP_S / statistics.harmonic_mean(self.times[max(i - 3, 0):j + 3])


def launch_ready(cmd, env) -> float:
    """Seconds from launching cmd until it prints the monotonic clock (the
    same system-wide clock as perf_counter here)."""
    t0 = perf_counter()
    out = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, check=True, timeout=CLI_TIMEOUT_S
    ).stdout
    return float(out) - t0


SETUP_CMD = [sys.executable, "-c", "import probarg.cli, time; print(time.perf_counter())"]
BARE_CMD = [sys.executable, "-c", "import time; print(time.perf_counter())"]


def setup_pair(env) -> tuple:
    """(launch + import of probarg.cli, bare launch just before it), seconds."""
    bare = launch_ready(BARE_CMD, env)
    return launch_ready(SETUP_CMD, env), bare


# --- ops ---------------------------------------------------------------------


def cli_op(op, expected, env):
    """One fresh `python -m probarg corpus` process, as users run it."""
    argv = workloads.corpus_argv(*op)
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "probarg", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S,
    )
    t1 = perf_counter()
    return t0, t1, *check_cli(argv, proc, expected[op])


def check_cli(argv, proc, want) -> tuple:
    """(ok, detail): exit 0 and stdout equal to want, byte for byte."""
    ok = proc.returncode == 0 and proc.stdout == want
    detail = f"probarg {' '.join(argv)}: exit {proc.returncode}, stdout {'matches' if ok else 'differs'}"
    if proc.returncode:
        detail += f", stderr {proc.stderr.decode(errors='replace')[-300:]!r}"
    return ok, detail


def timed_phase(workload: str, seed: int, seconds: float, env, deadline: float) -> dict:
    """Run whole rounds until `seconds` have passed; the round in progress
    finishes, so every statistic sees the same mix of ops in every run.

    Returns, for each correct op, its raw latency and its latency scaled to
    the nominal host speed; the failures; the attempted ops; the number of
    rounds; the host-speed samples; and the set-up pairs: SETUP_PAIRS before
    the first round, then one between rounds whenever SETUP_EVERY_S have
    passed since the last, so they sample the machine across the whole run.
    One unmeasured launch first writes the bytecode caches, which an
    installed package also has.
    """
    subprocess.run(SETUP_CMD, cwd=ROOT, env=env, capture_output=True, check=True)
    setups = [setup_pair(env) for _ in range(SETUP_PAIRS)]
    if workload == "corpus-cli":
        expected = workloads.corpus_expected(ROOT)

        def run_op(op):
            return cli_op(op, expected, env)
    else:
        runner = workloads.Runner(workload)
        run_op = runner.run
    gen = workloads.rounds(workload, seed)
    timed, failures, attempted = [], [], []
    speed = HostSpeed(deadline, in_ops=workload != "corpus-cli")
    start = last_setup = perf_counter()
    while perf_counter() - start < seconds:
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setups.append(setup_pair(env))
            last_setup = perf_counter()
        speed.round_start()  # sampling stops around set-up pairs, which it would slow
        ops = []
        for op in next(gen):
            attempted.append(op)
            t0, t1, ok, detail = workloads.attempt(run_op, op)
            speed.after_op()
            if ok:
                ops.append((op, t0, t1))
            else:
                failures.append(detail)
        speed.round_end()
        timed.append(ops)
    done = [(op, *speed.scaled(t0, t1)) for ops in timed for op, t0, t1 in ops]
    shares = {}
    if workload == "random-assess":
        recs = [runner.expected[(n, i)] for n, i, _ in attempted]
        shares = {
            "incoherent": sum(r["verdict"] == "incoherent" for r in recs) / len(recs),
            "padded": sum(r["padded"] for r in recs) / len(recs),
            "descends": sum(r["descends"] for r in recs) / len(recs),
        }
    return {
        "done": done,
        "failures": failures,
        "attempted": attempted,
        "rounds": len(timed),
        "setups": setups,
        "refs": speed.times,
        "shares": shares,
    }


def nearest_rank(values, pct):
    """(value, samples beyond it) at the pct-th percentile, nearest rank."""
    xs = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def latency_metrics(workload, done, n_rounds) -> tuple:
    """(values, notes) from the (op, seconds) pairs of the correct ops:
    wall_s, ops_per_s, op_p50_ms, op_tail_ms and, on the in-process
    workloads, growth_per_atom."""
    lat = [dt for _, dt in done]
    by_size = {}
    for op, dt in done:
        by_size.setdefault(None if workload == "corpus-cli" else op[0], []).append(dt)
    notes = {}
    if workload == "chain-scale":
        largest = max(by_size)
        p50 = statistics.median(by_size[largest])
        notes["op_p50_ms"] = f"median at n = {largest}, {len(by_size[largest])} ops"
    else:
        p50 = statistics.median(lat)
        notes["op_p50_ms"] = f"{len(lat)} ops"
    pct = TAIL_PCT[workload]
    tail, beyond = nearest_rank(lat, pct)
    notes["op_tail_ms"] = f"p{pct} of {len(lat)} ops, {beyond} beyond it"
    values = {
        "wall_s": sum(lat) / n_rounds,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": p50 * 1000,
        "op_tail_ms": tail * 1000,
    }
    if workload != "corpus-cli":
        lo, hi = min(by_size), max(by_size)
        values["growth_per_atom"] = (
            statistics.median(by_size[hi]) / statistics.median(by_size[lo])
        ) ** (1 / (hi - lo))
        notes["growth_per_atom"] = f"(median t(n={hi}) / t(n={lo}))^(1/{hi - lo})"
    return values, notes


def end_to_end(workload, phase) -> tuple:
    """(metrics, notes): the end-to-end metrics, at the nominal host speed,
    and what is printed beside them, the raw figures among it."""
    done = phase["done"]
    metrics, notes = latency_metrics(workload, [(op, s) for op, _, s in done], phase["rounds"])
    raw, _ = latency_metrics(workload, [(op, dt) for op, dt, _ in done], phase["rounds"])
    who = resource.RUSAGE_CHILDREN if workload == "corpus-cli" else resource.RUSAGE_SELF
    metrics["setup_s"] = statistics.median(imp / bare for imp, bare in phase["setups"]) * BARE_LAUNCH_S
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    notes["wall_s"] = (
        f"{metrics.pop('wall_s'):.4f} s, the mean time of one of {phase['rounds']} rounds; "
        "not declared, being ops per round / ops_per_s"
    )
    if "growth_per_atom" in metrics:
        notes["growth_per_atom"] = f"{metrics.pop('growth_per_atom'):.4f} {notes['growth_per_atom']}"
    refs = sorted(phase["refs"])
    notes["host_speed"] = (
        f"ref_loop {statistics.median(refs) * 1000:.3f} ms median, "
        f"{refs[0] * 1000:.3f}..{refs[-1] * 1000:.3f} ms over {len(refs)} samples; "
        f"nominal {REF_LOOP_S * 1000:g} ms"
    )
    imps = [imp for imp, _ in phase["setups"]]
    bares = [bare for _, bare in phase["setups"]]
    notes["setup_s"] = (
        f"median of {len(imps)} launch+import / bare launch ratios x {BARE_LAUNCH_S:g} s; "
        f"raw launch+import {statistics.median(imps):.4f} s, bare {statistics.median(bares):.4f} s"
    )
    notes["raw"] = ", ".join(
        f"{k} {raw[k]:.4g} {unit}"
        for k, unit in (("wall_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))
    )
    attempted = len(phase["attempted"])
    notes["fail_ratio"] = f"{len(phase['failures']) / attempted} ({len(phase['failures'])} of {attempted} ops)"
    for key, share in phase["shares"].items():
        notes[f"share_{key}"] = f"{share:.4f}"
    return metrics, notes


# --- traced run ----------------------------------------------------------------


def read_fd(fd) -> dict:
    with os.fdopen(fd) as src:
        return json.loads(src.read() or "{}")


def trace_side(workload: str, seed: int, traced: bool, chunk, env, expected) -> dict:
    """One side of one pair, in a fresh child.py process: its summary, with
    the CLI's stdout checked on corpus-cli. chunk is (op id, op) on
    corpus-cli and a round number on the in-process workloads."""
    r, w = os.pipe()
    try:
        if workload == "corpus-cli":
            op_id, op = chunk
            argv = workloads.corpus_argv(*op)
            cmd = ["cli", str(w), str(int(traced)), str(op_id), *argv]
        else:
            cmd = ["pass", str(w), str(int(traced)), workload, str(seed), str(chunk)]
        proc = subprocess.run(
            [sys.executable, str(CHILD), *cmd],
            cwd=ROOT, env=env, capture_output=True, pass_fds=(w,), timeout=CLI_TIMEOUT_S,
        )
    finally:
        os.close(w)
    out = read_fd(r)
    if not out:
        raise RuntimeError(f"traced child failed: {proc.stderr.decode(errors='replace')[-500:]}")
    if workload == "corpus-cli":
        ok, detail = check_cli(argv, proc, expected[op])
        out.update(attempted=1, failures=[] if ok else [detail])
    elif proc.returncode:
        out["failures"].append(f"round {chunk}: exit {proc.returncode}")
    return out


def trace_pass(workload: str, seed: int, env) -> dict:
    """Every op (corpus-cli) or round (in-process) of the fixed set, once
    untraced and once traced, which side first alternating from one pair to
    the next so drift of the machine hits both sides alike."""
    trace_rounds = workloads.trace_rounds(workload, seed)
    if workload == "corpus-cli":
        expected = workloads.corpus_expected(ROOT)
        chunks = list(enumerate(op for ops in trace_rounds for op in ops))
    else:
        expected = None
        chunks = list(range(len(trace_rounds)))
    diffs, failures, layers, imports = [], [], {}, []
    attempted, plain_ms, traced_ms, missing = 0, 0.0, 0.0, []
    for k, chunk in enumerate(chunks):
        sides = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            sides[traced] = trace_side(workload, seed, traced, chunk, env, expected)
        for side in sides.values():
            attempted += side["attempted"]
            failures += side["failures"]
        diffs.append(sides[True]["wall_ms"] - sides[False]["wall_ms"])
        plain_ms += sides[False]["wall_ms"]
        traced_ms += sides[True]["wall_ms"]
        for key, value in sides[True]["layers"].items():
            layers[key] = layers.get(key, 0) + value
        imports.append(sides[True]["import_ms"])
        missing = sides[True]["missing"]
    return {
        "diffs": diffs,
        "plain_ms": plain_ms,
        "traced_ms": traced_ms,
        "attempted": attempted,
        "failures": failures,
        "layers": layers,
        "imports": imports,
        "missing": missing,
    }


def per_layer(workload: str, seed: int, env) -> tuple:
    """(metrics, notes, attempted, failures, repeated) of the traced run;
    repeated is the self-test: every count the same in both traced passes."""
    runs = [trace_pass(workload, seed, env) for _ in range(2)]
    failures = [f for run in runs for f in run["failures"]]
    attempted = sum(run["attempted"] for run in runs)
    counts = [
        {k: v for k, v in run["layers"].items() if isinstance(v, int)} for run in runs
    ]
    repeated = counts[0] == counts[1]
    if not repeated:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k))
        print(f"self-test FAILED: counts differ between the traced passes: {diff}", file=sys.stderr)
    layers = {
        k: (v if isinstance(v, int) else (v + runs[1]["layers"][k]) / 2)
        for k, v in runs[0]["layers"].items()
    }
    calls = layers.get("corpus.evaluate_task.calls")
    if calls is not None:
        layers["corpus.evaluate_task.distinct_ratio"] = (
            layers["corpus.evaluate_task.distinct"] / calls if calls else 0.0
        )
    layers["import_ms"] = statistics.median(runs[0]["imports"] + runs[1]["imports"])
    diffs = runs[0]["diffs"] + runs[1]["diffs"]
    layers["trace_overhead_ms"] = statistics.median(diffs)
    per = "op" if workload == "corpus-cli" else "round"
    plain_ms = (runs[0]["plain_ms"] + runs[1]["plain_ms"]) / 2
    traced_ms = (runs[0]["traced_ms"] + runs[1]["traced_ms"]) / 2
    notes = {
        "trace_overhead_ms": f"median of {len(diffs)} paired differences, one per {per}; "
        f"a whole pass took {traced_ms:.1f} ms traced, {plain_ms:.1f} ms untraced",
        "self_test": "per-layer counts repeated exactly" if repeated else "FAILED",
    }
    if runs[0]["missing"]:
        notes["missing"] = "targets gone from the package, their metrics left out: " + ", ".join(runs[0]["missing"])
    return layers, notes, attempted, failures, repeated


# --- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    preflight(args.workload)
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every process it starts: the host's CPUs
    # change speed independently of each other, so the reference loop has
    # to run where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def overtime(signum, frame):
        raise Overtime()

    # On the in-process workloads the timed phase's HostSpeed takes this
    # timer over and keeps the same deadline while ops run; launches between
    # its rounds have timeouts.
    deadline = perf_counter() + DEADLINE_S
    signal.signal(signal.SIGALRM, overtime)
    signal.alarm(DEADLINE_S)
    env = child_env()
    repeated = True
    try:
        if args.trace:
            section = "per_layer"
            values, notes, attempted, failures, repeated = per_layer(args.workload, args.seed, env)
        else:
            section = "end_to_end"
            phase = timed_phase(args.workload, args.seed, args.seconds, env, deadline)
            attempted, failures = len(phase["attempted"]), phase["failures"]
            values, notes = end_to_end(args.workload, phase) if phase["done"] else ({}, {})
    except Overtime:
        sys.exit(f"error: run exceeded {DEADLINE_S} s")
    finally:
        signal.alarm(0)

    units = declared_metrics(section)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values
    }
    print(f"probarg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced pass' if args.trace else f'{args.seconds:g} s timed'}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    for detail in failures[:10]:
        print(f"FAILED {detail}", file=sys.stderr)
    absent = sorted(set(units) - set(metrics))
    if absent:
        print(f"not measured: {', '.join(absent)}", file=sys.stderr)
    correct = not failures and attempted > 0 and repeated
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
