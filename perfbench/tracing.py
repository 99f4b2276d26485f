"""Per-layer tracing from outside the package.

A Tracer replaces each target function at every module attribute that binds
it (cli.propagate and corpus.propagate both bind coherence.propagate, so all
three names get the same wrapper), records a span (name, start, end, parent,
op id) around each call of a "span" target and only counts calls of a
"count" target. Spans stay in memory; summary() turns them into per-layer
totals once the traced pass is over. A target that no longer exists is
reported in `missing` and its metrics are left out, never reported as zero.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, metric stem, kind). A span target yields <stem>.calls,
# <stem>.ms and <stem>.self_ms; a count target yields the metric <stem>.
TARGETS = (
    ("probarg.cli", "main", "cli.main", "span"),
    ("probarg.corpus", "agreement_report", "corpus.agreement_report", "span"),
    ("probarg.corpus", "builtin_tasks", "corpus.builtin_tasks", "span"),
    ("probarg.corpus", "evaluate_task", "corpus.evaluate_task", "span"),
    ("probarg.corpus", "report_text", "corpus.render", "span"),
    ("probarg.corpus", "report_structured", "corpus.render", "span"),
    ("probarg.dsl", "parse", "dsl.parse", "span"),
    ("probarg.dsl", "lower", "dsl.lower", "span"),
    ("probarg.coherence", "propagate", "coherence.propagate", "span"),
    ("probarg.coherence", "check_coherence", "coherence.check_coherence", "span"),
    ("probarg.coherence", "classify", "coherence.classify", "span"),
    ("probarg.coherence", "_restrict_worlds", "coherence.levels", "count"),
    ("probarg.events", "constituents", "events.constituents.calls", "count"),
    ("probarg.events", "eval_classical", "events.eval_classical.calls", "count"),
    ("probarg.linprog", "solve_lp", "linprog.solve_lp", "span"),
    ("probarg.linprog", "_pivot", "linprog.pivots", "count"),
)

# Counts filled by result hooks, keyed by the stem whose calls feed them.
DERIVED = {
    "linprog.solve_lp": ("linprog.cells", "linprog.infeasible"),
    "events.constituents.calls": ("events.constituents.worlds",),
    "corpus.evaluate_task": ("corpus.evaluate_task.distinct",),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.missing = []
        self.op = 0
        self._stack = []
        self._undo = []
        self._evaluations = []  # evaluate_task args, keyed after the pass

    def install(self):
        import probarg.cli  # noqa: F401  (loads every module a target lives in)

        modules = [
            m for name, m in sys.modules.items()
            if name == "probarg" or name.startswith("probarg.")
        ]
        self._lower = sys.modules["probarg.dsl"].lower
        hooks = {
            "linprog.solve_lp": self._solve_hook,
            "events.constituents.calls": self._constituents_hook,
            "corpus.evaluate_task": self._evaluate_hook,
        }
        for modname, attr, stem, kind in TARGETS:
            fn = getattr(sys.modules[modname], attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            make = self._span if kind == "span" else self._count
            wrapper = make(stem, fn, hooks.get(stem))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)
                        self._undo.append((m, name, fn))

    def uninstall(self):
        for m, name, fn in reversed(self._undo):
            setattr(m, name, fn)
        self._undo.clear()

    def _span(self, stem, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [stem, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count(self, stem, fn, hook):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[stem] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _solve_hook(self, args, kwargs, result):
        objective = args[0] if args else kwargs["objective"]
        rows = args[1] if len(args) > 1 else kwargs["rows"]
        self.counts["linprog.cells"] += len(rows) * len(objective)
        if result.status == "infeasible":
            self.counts["linprog.infeasible"] += 1

    def _constituents_hook(self, args, kwargs, result):
        self.counts["events.constituents.worlds"] += len(result)

    def _evaluate_hook(self, args, kwargs, result):
        self._evaluations.append((args, kwargs))

    def _distinct_evaluations(self) -> int:
        """Evaluations whose (task, interpretation, lowered input) differ."""
        from probarg.coherence import ClassificationConfig

        keys = set()
        for args, kwargs in self._evaluations:
            task, interp = args[0], args[1]
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg", ClassificationConfig())
            keys.add((task.abbrev, interp, repr(self._lower(task.spec, interp, cfg))))
        return len(keys)

    def summary(self) -> dict:
        """Per-layer totals over everything traced so far."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for _, _, stem, kind in TARGETS:
            if kind == "span":
                out.update({f"{stem}.calls": 0, f"{stem}.ms": 0.0, f"{stem}.self_ms": 0.0})
            else:
                out[stem] = self.counts[stem]
        for i, (stem, start, end, _, _) in enumerate(self.spans):
            out[f"{stem}.calls"] += 1
            out[f"{stem}.ms"] += (end - start) * 1000
            out[f"{stem}.self_ms"] += (end - start - child[i]) * 1000
        for key in ("linprog.cells", "linprog.infeasible", "events.constituents.worlds"):
            out[key] = self.counts[key]
        out["corpus.evaluate_task.distinct"] = self._distinct_evaluations()
        for stem in self._lost_stems():
            for key in list(out):
                if key == stem or key.startswith(stem + ".") or key in DERIVED.get(stem, ()):
                    del out[key]
        out["spans"] = len(self.spans)
        return out

    def _lost_stems(self):
        """Stems all of whose targets are missing."""
        present = {stem for mod, attr, stem, _ in TARGETS if f"{mod}.{attr}" not in self.missing}
        return {stem for _, _, stem, _ in TARGETS} - present
