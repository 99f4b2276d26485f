from fractions import Fraction as F

import pytest

from probarg.coherence import ClassificationConfig, ResponseCategory
from probarg.corpus import (
    CE,
    CJ,
    MN,
    MW,
    TASK_ORDER,
    agreement_report,
    builtin_tasks,
    evaluate_task,
    report_structured,
    report_text,
)
from probarg.events import Interpretation

H = ResponseCategory.HOLDS
D = ResponseCategory.DOES_NOT_HOLD
N = ResponseCategory.NON_INFORMATIVE


@pytest.fixture(scope="module")
def tasks():
    return {t.abbrev: t for t in builtin_tasks()}


class TestBuiltinTasks:
    def test_exactly_eight_in_order(self, tasks):
        assert [t.abbrev for t in builtin_tasks()] == list(TASK_ORDER)

    def test_observed_percentages(self, tasks):
        assert tasks["Prdx"].observed == (F("0.00"), F("17.46"), F("82.54"))
        assert tasks["AT1"].observed == (F("65.08"), F("15.87"), F("19.05"))

    def test_confidence(self, tasks):
        assert tasks["EI"].confidence == (F("8.02"), F("1.97"))
        assert tasks["Prdx"].confidence == (F("6.82"), F("1.93"))

    def test_percentages_sum_to_100(self, tasks):
        for t in tasks.values():
            assert abs(sum(t.observed) - 100) <= F(1, 10)

    def test_expected_has_ce_everywhere(self, tasks):
        for t in tasks.values():
            assert CE in t.expected

    def test_expected_annotations(self, tasks):
        assert tasks["AT1"].expected[MW] is N
        assert tasks["NR"].expected[MW] is D
        assert tasks["Prdx"].expected[CJ] is D

    def test_modal_argmax_recomputed(self, tasks):
        cats = (H, D, N)
        for t in tasks.values():
            modal, ties = t.modal_observed()
            best = max(t.observed)
            assert not ties  # no ties in the embedded data
            assert t.observed[cats.index(modal)] == best


# the bold conditional-probability predictions
BOLD = {"AT1": H, "AT2": H, "NR": D, "EIn": D, "EI": H, "MP": H, "NMP": D, "Prdx": N}

# the eleven annotated alternative-interpretation cells
ANNOTATED = [
    ("AT1", MN, H), ("AT1", CJ, H), ("AT1", MW, N),
    ("AT2", MN, H), ("AT2", CJ, H), ("AT2", MW, N),
    ("NR", MW, D), ("NR", MN, N), ("NR", CJ, N),
    ("Prdx", MW, H), ("Prdx", CJ, D),
]

THETAS = (F(7, 10), F(4, 5), F(9, 10), F(19, 20))


class TestEvaluateTask:
    @pytest.mark.parametrize("theta", THETAS)
    def test_bold_predictions_all_thetas(self, tasks, theta):
        cfg = ClassificationConfig(theta=theta)
        for abbrev, expected in BOLD.items():
            pred = evaluate_task(tasks[abbrev], CE, cfg)
            assert pred.category is expected, (abbrev, theta, pred.bounds)

    @pytest.mark.parametrize("abbrev,interp,expected", ANNOTATED)
    def test_annotated_cells(self, tasks, abbrev, interp, expected):
        pred = evaluate_task(tasks[abbrev], interp)
        assert pred.category is expected

    def test_prdx_material_narrow_matches_wide(self, tasks):
        # un-negated conditional: both material scopes read identically
        wide = evaluate_task(tasks["Prdx"], MW)
        narrow = evaluate_task(tasks["Prdx"], MN)
        assert (wide.bounds, wide.category) == (narrow.bounds, narrow.category)

    def test_specific_bounds(self, tasks):
        assert evaluate_task(tasks["AT1"], CE).bounds.lo == 1
        p = evaluate_task(tasks["Prdx"], CE)
        assert (p.bounds.lo, p.bounds.hi) == (0, 1)
        nmp = evaluate_task(tasks["NMP"], CE)
        assert (nmp.bounds.lo, nmp.bounds.hi) == (0, F(19, 100))
        mp = evaluate_task(tasks["MP"], CE)
        assert (mp.bounds.lo, mp.bounds.hi) == (F(81, 100), 1)


# Coherent intervals as closed forms in theta (Pfeifer & Kleiter 2009),
# for premises each at least theta: a ground truth that owes nothing to
# the LP.
CLOSED_FORMS = {
    "MP": {
        CE: lambda t: (t * t, 1),
        MW: lambda t: (2 * t - 1, 1),
        MN: lambda t: (2 * t - 1, 1),
        CJ: lambda t: (t, 1),
    },
    "Prdx": {
        CE: lambda t: (0, 1),
        MW: lambda t: (t, 1),
        MN: lambda t: (t, 1),
        CJ: lambda t: (0, 1 - t),
    },
}


@pytest.mark.parametrize("abbrev", CLOSED_FORMS)
def test_closed_forms_at_every_theta(tasks, abbrev):
    """Modus ponens and the paradox under each reading, at every theta =
    k/1000 in (1/2, 1]: the bounds are exactly the closed form's."""
    for interp, form in CLOSED_FORMS[abbrev].items():
        for k in range(501, 1001):
            theta = F(k, 1000)
            bounds = evaluate_task(tasks[abbrev], interp, ClassificationConfig(theta=theta)).bounds
            assert (bounds.lo, bounds.hi) == form(theta), (interp, theta)


@pytest.fixture(scope="module")
def report():
    return agreement_report()


class TestAgreementReport:
    def test_ce_matches_all_eight(self, report):
        assert report.match_counts[CE] == 8

    def test_alternatives_miss(self, report):
        assert report.match_counts[MW] < 8
        assert report.match_counts[CJ] < 8

    def test_material_wide_misses_at1(self, report):
        row = next(
            r for r in report.rows if r.task == "AT1" and r.interpretation is MW
        )
        assert not row.match
        assert row.category is N
        assert row.modal_observed is H

    def test_conjunction_misses_prdx(self, report):
        row = next(
            r for r in report.rows if r.task == "Prdx" and r.interpretation is CJ
        )
        assert not row.match
        assert row.category is D
        assert row.observed_share_of_predicted == F("17.46")

    def test_theta_sensitivity_block(self, report):
        assert set(report.theta_sensitivity) == set(THETAS)
        for counts in report.theta_sensitivity.values():
            assert counts[CE] == 8

    def test_rows_cover_grid(self, report):
        assert len(report.rows) == 8 * 4

    def test_mean_coherent_share(self, report):
        shares = []
        for t in builtin_tasks():
            pred = evaluate_task(t, CE)
            idx = {H: 0, D: 1, N: 2}[pred.category]
            shares.append(t.observed[idx])
        assert report.mean_coherent_share == sum(shares) / 8


class TestSolveOnce:
    """agreement_report solves each distinct lowered problem once."""

    def test_72_propagate_calls(self, monkeypatch):
        from probarg import corpus

        calls = []
        propagate = corpus.propagate

        def counted(*args):
            calls.append(args)
            return propagate(*args)

        monkeypatch.setattr(corpus, "propagate", counted)
        agreement_report()
        assert len(calls) == 72
        assert len(set(calls)) == 72

    def test_equals_report_without_cache(self, report, monkeypatch):
        from probarg import corpus

        evaluate = corpus.evaluate_task
        monkeypatch.setattr(
            corpus, "evaluate_task", lambda task, interp, cfg, cache: evaluate(task, interp, cfg)
        )
        assert agreement_report() == report


class TestRendering:
    def test_structured_schema(self):
        data = report_structured(agreement_report())
        assert set(data) == {
            "theta",
            "rows",
            "match_counts",
            "mean_coherent_share",
            "theta_sensitivity",
        }
        row = data["rows"][0]
        assert set(row) == {
            "abbrev",
            "interpretation",
            "lo",
            "hi",
            "category",
            "modal_observed",
            "match",
        }
        assert row["abbrev"] == "AT1"
        assert isinstance(row["lo"], str)

    def test_text_mentions_pooling_and_footnote(self):
        text = report_text(agreement_report())
        assert "pooled" in text
        assert "Western samples" in text

    def test_rendering_deterministic(self):
        assert report_text(agreement_report()) == report_text(agreement_report())
        assert report_structured(agreement_report()) == report_structured(agreement_report())
