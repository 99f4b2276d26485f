"""The names perfbench/tracing.py patches still exist in the package.

The benchmark's traced run wraps the package functions listed in
tracing.TARGETS. A target that is renamed or deleted is reported in
Tracer.missing and its metrics are left out of the run's last line, while
the run still exits 0. This test installs the tracer over one `probarg
corpus` run and checks that no target is missing and that every per-layer
metric BENCHMARK.json declares comes out of the tracer.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from probarg import cli

ROOT = Path(__file__).resolve().parent.parent
# Per-layer metrics that perfbench/run.py computes itself, not the tracer.
COMPUTED_BY_RUN = {"corpus.evaluate_task.distinct_ratio", "import_ms", "trace_overhead_ms"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_target_exists_and_every_declared_metric_is_traced():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["corpus"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - COMPUTED_BY_RUN - set(tracer.summary()) == set()
