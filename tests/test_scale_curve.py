"""tools/scale_curve.py, at its smallest sizes.

The script runs one propagate per size, each in a child process started
by its launcher, and prints a Markdown table of each size's pivots,
solves, time and peak RSS. Here it runs up to 8 atoms: the chain at n =
8 and the interval chain at n = 6..8.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "scale_curve.py"


def test_scale_curve_up_to_8_atoms():
    """Each size's pivots and solves are those tests/solver_counts.py
    counts, and each child reports a time and a peak RSS."""
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--max", "8"], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    rows = [
        [cell.strip() for cell in line.split("|")[1:-1]]
        for line in out.stdout.splitlines()
        if line.startswith(("| chain", "| interval chain"))
    ]
    got = {(kind, int(n)): (int(pivots), int(solves)) for kind, n, pivots, solves, _, _ in rows}
    assert got == {
        ("chain", 8): (9, 2),
        ("interval chain", 6): (16, 3),
        ("interval chain", 7): (18, 3),
        ("interval chain", 8): (27, 3),
    }
    assert all(float(ms) > 0 and float(rss) > 0 for *_, ms, rss in rows)
