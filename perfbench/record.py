"""Record the expected answers in perfbench/expected/.

    python3 perfbench/record.py

Run this only on the commit whose answers define correctness (the seed
commit of the benchmark): everything it writes is what later runs compare
against, byte for byte or as exact rationals. It takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402  (perfbench/ is on sys.path as the script dir)


def record_corpus():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for theta in W.CORPUS_THETAS:
        if theta == "9/10":
            continue  # compared against tests/golden/
        for fmt in W.CORPUS_FORMATS:
            out = subprocess.run(
                [sys.executable, "-m", "probarg", *W.corpus_argv(theta, fmt)],
                cwd=ROOT, env=env, capture_output=True, check=True,
            ).stdout
            (W.EXPECTED / W.corpus_expected_name(theta, fmt)).write_bytes(out)


def record_chain():
    from probarg.coherence import propagate

    data = {}
    for n in W.CHAIN_SIZES:
        data[str(n)] = {}
        for theta in W.CHAIN_THETAS:
            b = propagate(*W.chain_inputs(n, theta))
            data[str(n)][str(theta)] = [str(b.lo), str(b.hi)]
        print(f"chain n={n} done", flush=True)
    (W.EXPECTED / "chain.json").write_text(json.dumps(data, indent=1) + "\n")


def record_assess():
    from probarg import coherence

    descents = [0]
    restrict = coherence._restrict_worlds

    def counting(*args):
        descents[0] += 1
        return restrict(*args)

    coherence._restrict_worlds = counting
    data = {}
    for n in W.ASSESS_SIZES:
        recs = []
        for index in range(W.ASSESS_POOL):
            item = W.assess_item(n, index)
            assessment, query, atoms = W.assess_inputs(item)
            descents[0] = 0
            verdict = coherence.check_coherence(assessment, atoms)
            rec = {"padded": item["padded"]}
            if isinstance(verdict, coherence.Incoherent):
                rec.update(verdict="incoherent", level=verdict.level)
            else:
                if not W.witness_valid(item, verdict.witness):
                    raise SystemExit(f"invalid witness at n={n} item={index}")
                bounds = coherence.propagate(assessment, query, atoms)
                rec.update(
                    verdict="coherent",
                    lo=str(bounds.lo),
                    hi=str(bounds.hi),
                    category=coherence.classify(bounds).value,
                )
            rec["descends"] = descents[0] > 0
            recs.append(rec)
        data[str(n)] = recs
        print(f"random-assess n={n} done", flush=True)
    coherence._restrict_worlds = restrict
    (W.EXPECTED / "random_assess.json").write_text(
        json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    W.EXPECTED.mkdir(exist_ok=True)
    record_corpus()
    record_chain()
    record_assess()
