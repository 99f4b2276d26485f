"""`probarg eval` over every corpus and tests/data file at five values of
theta, byte for byte against tests/golden/eval_grid.txt: stdout, stderr and
exit code of each run, in process.

Regenerate the golden (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_eval_grid.py > tests/golden/eval_grid.txt
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import probarg
from probarg.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "eval_grid.txt"
FILES = sorted((Path(probarg.__file__).parent / "corpus_data").glob("*.arg")) + sorted(
    (HERE / "data").glob("*.arg")
)
THETAS = ("9/10", "4/5", "7/10", "19/20", "1")


def render() -> str:
    """The grid as text: one block per file and theta."""
    blocks = []
    for path in FILES:
        for theta in THETAS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["eval", str(path), "--theta", theta])
            blocks.append(
                f"== eval {path.parent.name}/{path.name} --theta {theta}\n"
                f"exit {code}\n"
                f"-- stdout\n{out.getvalue()}"
                f"-- stderr\n{err.getvalue()}"
            )
    return "".join(blocks)


def test_eval_grid_matches_golden():
    assert len(FILES) == 10
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(render())
