"""`probarg check` over every corpus and tests/data file at five values of
theta and under each of the four readings, byte for byte against
tests/golden/check_grid.txt: stdout, stderr and exit code of each run, in
process. It pins every coherence verdict and every witness.

Regenerate the golden (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_check_grid.py > tests/golden/check_grid.txt
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from probarg.cli import main
from probarg.events import Interpretation

from test_eval_grid import FILES, HERE, THETAS

GOLDEN = HERE / "golden" / "check_grid.txt"
READINGS = tuple(i.value for i in Interpretation)


def render() -> str:
    """The grid as text: one block per file, reading and theta."""
    blocks = []
    for path in FILES:
        for reading in READINGS:
            for theta in THETAS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["check", str(path), "--interp", reading, "--theta", theta])
                blocks.append(
                    f"== check {path.parent.name}/{path.name} --interp {reading} --theta {theta}\n"
                    f"exit {code}\n"
                    f"-- stdout\n{out.getvalue()}"
                    f"-- stderr\n{err.getvalue()}"
                )
    return "".join(blocks)


def test_check_grid_matches_golden():
    assert len(FILES) == 10 and len(READINGS) == 4 and len(THETAS) == 5
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(render())
