"""The eight built-in argument tasks, their expected classifications under
the competing interpretations, the observed response data, and the agreement
report that tests the conditional-probability reading against the data.

Observed response percentages and confidence ratings are embedded empirical
data (pooled over the indicative and counterfactual booklets and both task
orders) and stored as exact decimals so report output is byte-stable.
"""

from __future__ import annotations

import os
from fractions import Fraction

from ._value import Value
from .coherence import (
    ClassificationConfig,
    ResponseCategory,
    classify,
    propagate,
)
from .dsl import lower, parse
from .events import Interpretation

CE = Interpretation.CONDITIONAL_EVENT
MW = Interpretation.MATERIAL_WIDE
MN = Interpretation.MATERIAL_NARROW
CJ = Interpretation.CONJUNCTION

# Each task's file in corpus_data is its abbreviation in lower case plus .arg.
TASK_ORDER = ("AT1", "AT2", "NR", "EIn", "EI", "MP", "NMP", "Prdx")

# (holds, does-not-hold, non-informative) response percentages, n = 63.
OBSERVED = {
    "AT1": (Fraction("65.08"), Fraction("15.87"), Fraction("19.05")),
    "AT2": (Fraction("76.19"), Fraction("11.11"), Fraction("12.70")),
    "NR": (Fraction("6.35"), Fraction("63.49"), Fraction("30.16")),
    "EIn": (Fraction("6.45"), Fraction("69.35"), Fraction("24.20")),
    "EI": (Fraction("88.89"), Fraction("6.35"), Fraction("4.76")),
    "MP": (Fraction("53.97"), Fraction("3.17"), Fraction("42.86")),
    "NMP": (Fraction("9.52"), Fraction("52.38"), Fraction("38.10")),
    "Prdx": (Fraction("0.00"), Fraction("17.46"), Fraction("82.54")),
}

# Mean and standard deviation of confidence ratings (0..10 scale).
CONFIDENCE = {
    "AT1": (Fraction("6.77"), Fraction("1.99")),
    "AT2": (Fraction("6.86"), Fraction("2.06")),
    "NR": (Fraction("7.20"), Fraction("2.37")),
    "EIn": (Fraction("7.71"), Fraction("1.99")),
    "EI": (Fraction("8.02"), Fraction("1.97")),
    "MP": (Fraction("7.18"), Fraction("2.10")),
    "NMP": (Fraction("7.02"), Fraction("2.08")),
    "Prdx": (Fraction("6.82"), Fraction("1.93")),
}

H = ResponseCategory.HOLDS
D = ResponseCategory.DOES_NOT_HOLD
N = ResponseCategory.NON_INFORMATIVE

# Expected categories, stored only for the cells the source data asserts;
# cells for the remaining (task, interpretation) pairs are computed and
# reported but carry no stored expectation.
EXPECTED = {
    "AT1": {CE: H, MN: H, CJ: H, MW: N},
    "AT2": {CE: H, MN: H, CJ: H, MW: N},
    "NR": {CE: D, MW: D, MN: N, CJ: N},
    "EIn": {CE: D},
    "EI": {CE: H},
    "MP": {CE: H},
    "NMP": {CE: D},
    # un-negated conditional: wide and narrow material scope coincide
    "Prdx": {CE: N, MW: H, MN: H, CJ: D},
}

# Averaged Western-sample percentages quoted for context (displayed in report
# footnotes only, never asserted computationally).
WESTERN_FOOTNOTE = (
    "Western samples (averages reported elsewhere): AT1 73%, AT2 75%, NR 80%, "
    "EI 73%, EIn 88%, MP 68%, NMP 63%, Prdx 87% coherent responses."
)

THETA_GRID = (Fraction(7, 10), Fraction(4, 5), Fraction(9, 10), Fraction(19, 20))


class TaskRecord(Value):
    """One built-in task: its ArgumentSpec, the expected categories by
    Interpretation, observed = (holds_pct, notholds_pct, noninf_pct) and
    confidence = (mean, sd)."""

    __slots__ = ("abbrev", "spec", "expected", "observed", "confidence")

    def modal_observed(self):
        """Category with the largest observed share, plus any ties."""
        cats = (H, D, N)
        best = max(self.observed)
        winners = [c for c, p in zip(cats, self.observed) if p == best]
        return winners[0], tuple(winners[1:])


class Prediction(Value):
    __slots__ = ("task", "interpretation", "bounds", "category")


class AgreementRow(Value):
    """One task under one reading: its Prediction's fields, the task's modal
    observed category, whether the prediction matches it (never on a tied
    mode), and the observed percentage of the predicted category."""

    __slots__ = (
        "task",
        "interpretation",
        "bounds",
        "category",
        "modal_observed",
        "match",
        "observed_share_of_predicted",
    )


class AgreementReport(Value):
    """rows: an AgreementRow per task x interpretation; match_counts:
    Interpretation -> int; mean_coherent_share: the mean observed share of
    the CE prediction; theta_sensitivity: theta -> {Interpretation -> match
    count}."""

    __slots__ = ("theta", "rows", "match_counts", "mean_coherent_share", "theta_sensitivity")


def builtin_tasks():
    """The eight shipped tasks with embedded observed data."""
    # The files are read through this module's own loader, which reads
    # package data as importlib.resources would (from a directory or a zip)
    # without importing it, and with it pathlib, zipfile, tempfile and
    # typing. probarg.corpus_data is a namespace package, with no loader.
    data = os.path.join(os.path.dirname(__file__), "corpus_data")
    records = []
    for abbrev in TASK_ORDER:
        text = __loader__.get_data(os.path.join(data, f"{abbrev.lower()}.arg")).decode()
        (spec,) = parse(text)
        if spec.name != abbrev:
            raise RuntimeError(f"corpus file for {abbrev} defines task {spec.name}")
        records.append(
            TaskRecord(
                abbrev=abbrev,
                spec=spec,
                expected=EXPECTED[abbrev],
                observed=OBSERVED[abbrev],
                confidence=CONFIDENCE[abbrev],
            )
        )
    return records


def evaluate_task(
    task: TaskRecord,
    interpretation: Interpretation,
    cfg: ClassificationConfig = ClassificationConfig(),
    cache: dict | None = None,
) -> Prediction:
    """Lower, propagate and classify one task under one interpretation.

    cache, when given, maps a lowered (assessment, query, atoms) to its
    bounds; a problem found there is not solved again.
    """
    assessment, query = lower(task.spec, interpretation, cfg)
    cache = {} if cache is None else cache
    key = (assessment, query, task.spec.atoms)
    bounds = cache.get(key)
    if bounds is None:
        try:
            bounds = propagate(assessment, query, task.spec.atoms)
        except Exception as err:
            raise RuntimeError(
                f"task {task.abbrev} under {interpretation.value}: {err}"
            ) from err
        cache[key] = bounds
    return Prediction(task.abbrev, interpretation, bounds, classify(bounds, cfg))


def _share_of(task: TaskRecord, category: ResponseCategory) -> Fraction:
    shares = {H: task.observed[0], D: task.observed[1], N: task.observed[2]}
    return shares.get(category, Fraction(0))


def agreement_report(cfg: ClassificationConfig = ClassificationConfig()) -> AgreementReport:
    """Predicted vs modal observed categories for every task and reading.

    The coherent-response share of a task is the observed percentage of the
    category predicted under the conditional-event reading. Each (task,
    reading, theta) cell is evaluated once, at cfg.theta and at every theta
    of THETA_GRID.
    """
    tasks = builtin_tasks()
    modes = {task.abbrev: task.modal_observed() for task in tasks}
    cache = {}
    preds = {}
    for theta in dict.fromkeys((cfg.theta, *THETA_GRID)):
        theta_cfg = ClassificationConfig(theta=theta, tau_high=cfg.tau_high, tau_low=cfg.tau_low)
        for task in tasks:
            for interp in Interpretation:
                preds[theta, task.abbrev, interp] = evaluate_task(task, interp, theta_cfg, cache)

    def matches(theta):
        """(task, interpretation, prediction, match) for each cell at theta;
        match when the predicted category is the task's modal response,
        never on a tied mode."""
        for task in tasks:
            modal, ties = modes[task.abbrev]
            for interp in Interpretation:
                pred = preds[theta, task.abbrev, interp]
                yield task, interp, pred, not ties and pred.category == modal

    def match_counts(theta):
        counts = {i: 0 for i in Interpretation}
        for _, interp, _, match in matches(theta):
            counts[interp] += match
        return counts

    rows = tuple(
        AgreementRow(
            task=task.abbrev,
            interpretation=interp,
            bounds=pred.bounds,
            category=pred.category,
            modal_observed=modes[task.abbrev][0],
            match=match,
            observed_share_of_predicted=_share_of(task, pred.category),
        )
        for task, interp, pred, match in matches(cfg.theta)
    )
    ce_shares = [row.observed_share_of_predicted for row in rows if row.interpretation is CE]
    return AgreementReport(
        theta=cfg.theta,
        rows=rows,
        match_counts=match_counts(cfg.theta),
        mean_coherent_share=sum(ce_shares, Fraction(0)) / len(ce_shares),
        theta_sensitivity={theta: match_counts(theta) for theta in THETA_GRID},
    )


# --- rendering ---------------------------------------------------------------


def _fmt_pct(x: Fraction) -> str:
    return f"{float(x):.2f}"


def report_rows_structured(report: AgreementReport):
    """One object per (task, interpretation), schema in docs/schema.md."""
    return [
        {
            "abbrev": row.task,
            "interpretation": row.interpretation.value,
            "lo": str(row.bounds.lo),
            "hi": str(row.bounds.hi),
            "category": row.category.value,
            "modal_observed": row.modal_observed.value,
            "match": row.match,
        }
        for row in report.rows
    ]


def report_structured(report: AgreementReport):
    return {
        "theta": str(report.theta),
        "rows": report_rows_structured(report),
        "match_counts": {
            i.value: report.match_counts[i] for i in Interpretation
        },
        "mean_coherent_share": str(report.mean_coherent_share),
        "theta_sensitivity": {
            str(theta): {i.value: c[i] for i in Interpretation}
            for theta, c in report.theta_sensitivity.items()
        },
    }


def report_text(report: AgreementReport) -> str:
    lines = []
    lines.append(
        f"Agreement report (theta = {report.theta}; observed data pooled over "
        "indicative/counterfactual booklets and task orders, n = 63)"
    )
    header = (
        f"{'task':<5} {'interpretation':<18} {'bounds':<18} "
        f"{'predicted':<16} {'modal':<16} match"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        lines.append(
            f"{row.task:<5} {row.interpretation.value:<18} "
            f"{str(row.bounds):<18} {row.category.value:<16} "
            f"{row.modal_observed.value:<16} "
            f"{'yes' if row.match else 'no'}"
        )
    lines.append("")
    lines.append("Matches with the modal response, per interpretation:")
    for i in Interpretation:
        lines.append(f"  {i.value:<18} {report.match_counts[i]} / 8")
    lines.append(
        "Mean observed share of the conditional-event prediction: "
        f"{_fmt_pct(report.mean_coherent_share)}%"
    )
    lines.append("")
    lines.append("Theta sensitivity (matches per interpretation):")
    for theta, counts in report.theta_sensitivity.items():
        cells = ", ".join(f"{i.value}={counts[i]}" for i in Interpretation)
        lines.append(f"  theta = {theta}: {cells}")
    lines.append("")
    lines.append(
        "Note: the quantified premise 'Every S is P' is read as a constraint "
        "on p(P|S) under every interpretation; alternative readings of the "
        "quantified premise itself for EI/EIn are not asserted."
    )
    lines.append(f"Note: {WESTERN_FOOTNOTE}")
    return "\n".join(lines) + "\n"
