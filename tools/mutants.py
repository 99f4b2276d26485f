"""Mutants of the solver that the tests must catch, each run on a copy.

    PYTHONPATH=src python tools/mutants.py

Each mutant is a file of the package, an exact old text, the new text that
replaces it, and the test ids that must fail with it. For each one the
script copies src/, tests/, tools/, perfbench/ and pyproject.toml of the
checkout it lives in into a temporary directory, makes the replacement
there, and runs pytest on the listed ids in that copy; the checkout itself
is never written. It prints one line per mutant: "caught" when every
listed test fails, else what went wrong. It exits 1 when a mutant survives
(a listed test passes or is not found, or the tests give no verdict
within TIMEOUT seconds), or when its old text does not occur exactly once
in its file.

Add a mutant for each check a change moves or merges, aimed at the
property the check guards, so that a later change that rewrites the check
can show the property is still caught.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROW_ARITHMETIC = [
    "tests/test_row_arithmetic.py::test_pivots_and_pricing_leave_the_reference_rows[small]",
    "tests/test_row_arithmetic.py::test_pivots_and_pricing_leave_the_reference_rows[large]",
    "tests/test_row_arithmetic.py::test_charnes_cooper_leaves_the_reference_rows",
    "tests/test_row_arithmetic.py::test_replay_of_the_corpus_grid_pool_and_chain",
]
LAYER_TESTS = [
    "tests/test_solver_path.py::test_layer_tableau_is_the_rows_tableau",
    "tests/test_solver_path.py::test_world_masks_and_laid_out_starts_match_the_scan",
    "tests/test_solver_path.py::test_presolve_on_worlds_matches_class_walking",
]

# (name, file under src/probarg, old text, new text, test ids that must fail)
MUTANTS = [
    # linprog's exact row operations
    (
        "charnes-cooper gcd without the rhs term",
        "linprog.py",
        "g = gcd(s, t, u)",
        "g = gcd(s, t)",
        ["tests/test_row_arithmetic.py::test_charnes_cooper_leaves_the_reference_rows"],
    ),
    (
        "coprime that never divides",
        "linprog.py",
        "return [v // g for v in row] if g > 1 else row",
        "return row",
        ROW_ARITHMETIC,
    ),
    (
        "pivot divides only p by gcd(p, f)",
        "linprog.py",
        "q, f = p // g, f // g",
        "q, f = p // g, f",
        ROW_ARITHMETIC,
    ),
    (
        "dantzig takes the last of equal maxima",
        "linprog.py",
        "entering = cost.index(best)",
        "entering = cols - 1 - cost[:cols][::-1].index(best)",
        ["tests/test_linprog.py::test_dantzig_takes_the_lowest_index_of_equal_reduced_costs"],
    ),
    # the world masks and the laid-out crash start
    (
        "crash worlds of a lo row taken from e",
        "coherence.py",
        "blocked |= off_e",
        "blocked |= on_e",
        LAYER_TESTS,
    ),
    (
        "laid-out crash rhs of f instead of -f",
        "linprog.py",
        "row[i], row[-1] = k, -f",
        "row[i], row[-1] = k, f",
        LAYER_TESTS,
    ),
    (
        "support mapped through the wrong representative",
        "coherence.py",
        "mask |= 1 << reps[low.bit_length() - 1]",
        "mask |= 1 << reps[-low.bit_length()]",
        LAYER_TESTS,
    ),
    # the layer contract (tests/layer_reference.py)
    (
        "representatives by highest world",
        "coherence.py",
        "[(c & -c).bit_length() - 1 for c in classes]",
        "[c.bit_length() - 1 for c in classes]",
        LAYER_TESTS,
    ),
    (
        "row coefficients where e holds and fails swapped",
        "coherence.py",
        "row = [(on if e & w else off) if m & w else 0 for w in classes]",
        "row = [(off if e & w else on) if m & w else 0 for w in classes]",
        [*LAYER_TESTS, "tests/test_solver_path.py::test_slack_has_the_rational_rows_unit"],
    ),
    (
        "m_cols not restricted to the columns",
        "coherence.py",
        "self.m_cols.append(m & cols)",
        "self.m_cols.append(m)",
        LAYER_TESTS,
    ),
    (
        "support left as column positions",
        "coherence.py",
        "mask |= 1 << reps[low.bit_length() - 1]",
        "mask |= low",
        LAYER_TESTS,
    ),
    (
        "query tables left out of the split",
        "coherence.py",
        "for t in [t for pair in (*tables, extra) for t in pair]:",
        "for t in [t for pair in tables for t in pair]:",
        LAYER_TESTS,
    ),
    (
        "deeper layer without the query's antecedent",
        "coherence.py",
        "[*extra[:1], *(m for m, _ in tables)]",
        "[m for m, _ in tables]",
        LAYER_TESTS,
    ),
    (
        "presolve stops after one round",
        "coherence.py",
        "            live ^= pinned\n",
        "            live ^= pinned\n            break\n",
        LAYER_TESTS,
    ),
    # the pivot and solve counter (tests/solver_counts.py counting())
    (
        "no crash start",
        "coherence.py",
        "crash = (self.cols & ((singles & -singles) - 1)).bit_count() if singles else None",
        "crash = None",
        [
            "tests/test_coherence.py::TestSolveCounts::test_pivots_and_solves",
            "tests/test_solver_path.py::test_presolve_pivots_and_solves",
            "tests/test_solver_path.py::test_free_entry_adds_no_row_but_descends",
        ],
    ),
]

COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
TIMEOUT = 300  # seconds for the tests of one mutant
FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def run(root: Path, mutant) -> tuple[bool, str]:
    """(caught, what happened) for one mutant on a copy of root."""
    _, module, old, new, ids = mutant
    with tempfile.TemporaryDirectory(prefix="probarg-mutant-") as tmp:
        tmp = Path(tmp)
        for item in COPIED:
            source = root / item
            if source.is_dir():
                shutil.copytree(
                    source, tmp / item, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
                )
            elif source.exists():
                shutil.copy2(source, tmp / item)
        path = tmp / "src" / "probarg" / module
        text = path.read_text(encoding="utf-8")
        found = text.count(old)
        if found != 1:
            return False, f"old text found {found} times in {module}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            out = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
                cwd=tmp,
                env=env,
                capture_output=True,
                text=True,
                timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            # A mutant can make the solver loop; a hang is not a failed test.
            return False, f"no verdict within {TIMEOUT} s"
    failed = set(FAILED.findall(out.stdout))
    survived = [i for i in ids if i not in failed]
    if out.returncode != 1 or survived:
        tail = out.stdout.strip().splitlines()[-1:] or [f"pytest exit {out.returncode}"]
        return False, f"survived: {survived or ids} did not fail ({tail[0]})"
    return True, f"caught by {len(ids)} test{'s' * (len(ids) > 1)}"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        caught, what = run(root, mutant)
        bad += not caught
        took = time.perf_counter() - start
        print(f"{'ok  ' if caught else 'FAIL'} {mutant[0]}: {what} ({took:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
