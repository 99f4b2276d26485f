"""One sha256 over the answers of check_coherence and propagate.

    PYTHONPATH=src python tools/answers_digest.py

The inputs are built from perfbench/workloads.py, which is only read:

- each of the 800 items of the random-assess pool (200 per size over 2..5
  atoms);
- the chain p(A0) >= 9/10, p(A_{i+1} | A_i) >= 9/10 with the query
  (A_{n-1} | A0), for n = 3 .. 12.

For every input it takes the repr of check_coherence's verdict (the
witness of a coherent set, the level and description of an incoherent
one) and of propagate's bounds, or of the certificate of the
IncoherentPremises it raises, one line each, and prints the sha256 of
those lines. A change that keeps every answer, witness and description
prints the same digest. Point PYTHONPATH at another checkout's src to
digest that tree's answers on the same inputs.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from probarg.coherence import IncoherentPremises, check_coherence, propagate  # noqa: E402

CHAIN_SIZES = range(3, 13)
CHAIN_THETA = Fraction(9, 10)


def inputs():
    """(assessment, query, atoms) of each pool item, then of each chain."""
    for n in workloads.ASSESS_SIZES:
        for index in range(workloads.ASSESS_POOL):
            yield workloads.assess_inputs(workloads.assess_item(n, index))
    for n in CHAIN_SIZES:
        yield workloads.chain_inputs(n, CHAIN_THETA)


def answers():
    """Per input, the repr of its verdict and of its bounds."""
    for a, q, atoms in inputs():
        yield repr(check_coherence(a, atoms))
        try:
            yield repr(propagate(a, q, atoms))
        except IncoherentPremises as err:
            yield repr(err.certificate)


def digest() -> str:
    h = hashlib.sha256()
    for line in answers():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
