"""Value semantics of the package's record classes: field-wise == and hash,
constructors with keywords and defaults, immutability, validation messages
and the repr text."""

import copy
import pickle
from fractions import Fraction as F

import pytest

import probarg
from probarg._value import Value
from probarg.coherence import (
    Assessment,
    AssessmentEntry,
    Bounds,
    ClassificationConfig,
    Coherent,
    Incoherent,
    ResponseCategory,
)
from probarg.corpus import (
    AgreementReport,
    AgreementRow,
    Prediction,
    builtin_tasks,
)
from probarg.dsl import ArgumentSpec, Certain, Numeric, PremiseSpec, QuiteSure
from probarg.events import (
    TOP,
    And,
    Atom,
    Bottom,
    ConditionalObject,
    Every,
    If,
    Interpretation,
    MaterialImp,
    NegIf,
    Not,
    Or,
    Plain,
    Top,
)
from probarg.linprog import LPResult
from probarg.prevision import ConditionalRandomQuantity, crq_of
from probarg.stats import ContingencyTable, MonteCarloResult

A, C = Atom("A"), Atom("C")
CE = Interpretation.CONDITIONAL_EVENT
H = ResponseCategory.HOLDS


# name -> (a factory of fresh equal values, a value that differs in one field)
VALUES = {
    "Atom": (lambda: Atom("A"), Atom("B")),
    "Not": (lambda: Not(Atom("A")), Not(C)),
    "And": (lambda: And(Atom("A"), Atom("C")), And(C, A)),
    "Or": (lambda: Or(Atom("A"), Atom("C")), Or(A, A)),
    "MaterialImp": (lambda: MaterialImp(Atom("A"), Atom("C")), MaterialImp(C, C)),
    "Top": (Top, Bottom()),
    "Bottom": (Bottom, Top()),
    "ConditionalObject": (lambda: ConditionalObject(Atom("C"), Atom("A")), ConditionalObject(C)),
    "If": (lambda: If(Atom("A"), Atom("C")), If(C, A)),
    "NegIf": (lambda: NegIf(Atom("A"), Atom("C")), NegIf(A, A)),
    "Every": (lambda: Every("S", "P"), Every("P", "S")),
    "Plain": (lambda: Plain(Atom("A")), Plain(C)),
    "AssessmentEntry": (
        lambda: AssessmentEntry(ConditionalObject(C, A), F(9, 10), 1),
        AssessmentEntry(ConditionalObject(C, A), F(8, 10), 1),
    ),
    "Assessment": (
        lambda: Assessment(((ConditionalObject(A), "9/10", 1),)),
        Assessment(),
    ),
    "Bounds": (lambda: Bounds(F(1, 2), 1), Bounds(0, 1)),
    "ClassificationConfig": (lambda: ClassificationConfig(theta="4/5"), ClassificationConfig()),
    "Coherent": (lambda: Coherent((F(1, 2), F(1, 2)), ("A",)), Coherent((1, 0), ("A",))),
    "Incoherent": (lambda: Incoherent(0, "unsolvable"), Incoherent(1, "unsolvable")),
    "ConditionalRandomQuantity": (
        lambda: crq_of(C, A, F(1, 2), ("A", "C")),
        crq_of(C, A, F(1, 3), ("A", "C")),
    ),
    "QuiteSure": (QuiteSure, Certain()),
    "Certain": (Certain, QuiteSure()),
    "Numeric": (lambda: Numeric(F(1, 2), 1), Numeric(0, 1)),
    "PremiseSpec": (lambda: PremiseSpec(Plain(Atom("A")), QuiteSure()), PremiseSpec(Plain(A), Certain())),
    "ArgumentSpec": (
        lambda: ArgumentSpec("T", ("A", "C"), (), If(Atom("A"), Atom("C"))),
        ArgumentSpec("U", ("A", "C"), (), If(A, C)),
    ),
    "TaskRecord": (lambda: builtin_tasks()[0], builtin_tasks()[1]),
    "Prediction": (
        lambda: Prediction("MP", CE, Bounds(F(9, 10), 1), H),
        Prediction("NR", CE, Bounds(F(9, 10), 1), H),
    ),
    "AgreementRow": (
        lambda: AgreementRow("MP", CE, Bounds(0, 1), H, H, True, F(1, 2)),
        AgreementRow("MP", CE, Bounds(0, 1), H, H, False, F(1, 2)),
    ),
    "AgreementReport": (
        lambda: AgreementReport(F(9, 10), (), {CE: 1}, F(1, 2), {}),
        AgreementReport(F(4, 5), (), {CE: 1}, F(1, 2), {}),
    ),
    "ContingencyTable": (lambda: ContingencyTable(((1, 2), (3, 4))), ContingencyTable(((1, 2), (3, 5)))),
    "MonteCarloResult": (
        lambda: MonteCarloResult(0.5, 0.01, 1000, 42),
        MonteCarloResult(0.5, 0.01, 1000, 43),
    ),
    "LPResult": (lambda: LPResult("optimal", F(1), [F(1)]), LPResult("infeasible")),
}

# Records holding a dict or a list have no hash, as before.
UNHASHABLE = {"TaskRecord", "AgreementReport", "LPResult"}
MUTABLE = {"LPResult"}


def test_every_public_record_is_covered():
    records = {
        name
        for name in probarg.__all__
        if isinstance(getattr(probarg, name), type)
        and not issubclass(getattr(probarg, name), (BaseException,))
        and name not in ("Formula", "Interpretation", "ResponseCategory")
    }
    assert records <= set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_compare_and_hash_equal(name):
    make, other = VALUES[name]
    x, y = make(), make()
    assert x is not y
    assert x == y and not (x != y)
    assert x != other and not (x == other)
    assert x != object()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y, other}) == 2


@pytest.mark.parametrize("name", sorted(VALUES))
def test_assignment(name):
    x = VALUES[name][0]()
    field = next(iter(type(x).__match_args__), "extra")
    if name in MUTABLE:
        setattr(x, field, "infeasible")
        assert getattr(x, field) == "infeasible"
        return
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_copy_and_pickle_round_trip(name):
    x = VALUES[name][0]()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x)
        assert y == x


class TestConstruction:
    def test_keywords(self):
        assert ConditionalObject(consequent=C, antecedent=A) == ConditionalObject(C, A)
        assert AssessmentEntry(obj=ConditionalObject(C), lo=0, hi=1) == AssessmentEntry(
            ConditionalObject(C), 0, 1
        )
        assert Assessment(entries=()) == Assessment()
        assert Bounds(lo=0, hi=1) == Bounds(0, 1)
        assert And(left=A, right=C) == And(A, C)
        assert Atom(name="A") == A
        assert Every(subject="S", predicate="P") == Every("S", "P")
        assert LPResult(status="optimal", value=1, solution=[1]) == LPResult("optimal", 1, [1])
        assert Coherent(witness=(1,), atomset=("A",)) == Coherent((1,), ("A",))

    def test_defaults(self):
        assert ConditionalObject(C).antecedent == TOP
        assert Assessment().entries == ()
        cfg = ClassificationConfig(theta=F(4, 5))
        assert (cfg.theta, cfg.tau_high, cfg.tau_low) == (F(4, 5), F(1, 2), F(1, 2))
        assert ClassificationConfig().theta == F(9, 10)
        res = LPResult("infeasible")
        assert (res.status, res.value, res.solution) == ("infeasible", None, None)

    def test_normalisation(self):
        entry = AssessmentEntry(ConditionalObject(C), "9/10", 1)
        assert type(entry.lo) is F and type(entry.hi) is F
        a = Assessment([(ConditionalObject(C), "1/2", "1")])
        assert a.entries == (AssessmentEntry(ConditionalObject(C), F(1, 2), F(1)),)
        assert ClassificationConfig(theta="4/5", tau_high=1, tau_low=0).tau_high == F(1)
        assert ContingencyTable([[1, "2"], [3, 4]]).counts == ((1, 2), (3, 4))

    def test_too_many_positional_arguments(self):
        with pytest.raises(TypeError):
            Atom("A", "B")
        with pytest.raises(TypeError):
            Top(1)


def records(cls=Value):
    """The package's Value subclasses that take Value's own constructor."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("probarg.") and "__init__" not in sub.__dict__:
            yield sub
        yield from records(sub)


RECORDS = sorted(set(records()), key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_records_found_by_walking_subclasses():
    names = {cls.__qualname__ for cls in RECORDS}
    assert {"Not", "And", "If", "Every", "Plain", "Coherent", "Incoherent", "TaskRecord"} <= names
    assert {"Prediction", "AgreementRow", "AgreementReport", "PremiseSpec"} <= names
    assert {"ArgumentSpec", "ConditionalRandomQuantity", "MonteCarloResult"} <= names
    assert not names & {"Atom", "ConditionalObject", "Bounds", "Assessment", "Numeric"}


# The constructor's contract: fields in __slots__ order, by position or
# keyword, all required.
by_name = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
with_fields = pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if cls._fields], ids=lambda cls: cls.__qualname__
)


@by_name
def test_keywords_equal_positions(cls):
    values = tuple(range(len(cls._fields)))
    x = cls(*values)
    assert tuple(getattr(x, f) for f in cls._fields) == values
    assert cls(**dict(zip(cls._fields, values))) == x
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == x


@by_name
def test_too_many_positional_arguments(cls):
    with pytest.raises(TypeError, match=f"{cls.__qualname__}\\(\\) takes"):
        cls(*range(len(cls._fields) + 1))


@by_name
def test_unknown_keyword(cls):
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*range(len(cls._fields)), extra=0)


@with_fields
def test_missing_field(cls):
    with pytest.raises(TypeError, match=f"missing required arguments: {cls._fields[-1]}$"):
        cls(*range(len(cls._fields) - 1))
    with pytest.raises(TypeError, match=f"missing required arguments: {cls._fields[0]}\\b"):
        cls(**dict.fromkeys(cls._fields[1:], 0))


@with_fields
def test_field_given_both_ways(cls):
    with pytest.raises(TypeError, match=f"multiple values for argument '{cls._fields[0]}'"):
        cls(*range(len(cls._fields)), **{cls._fields[0]: 0})


class TestValidationMessages:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Atom(""), "atom name must be nonempty"),
            (lambda: ConditionalObject(C, Bottom()), "antecedent is unsatisfiable: bottom"),
            (lambda: ConditionalObject(C, And(A, Not(A))), "antecedent is unsatisfiable: and(A, not(A))"),
            (lambda: Bounds(1, 0), "invalid bounds [1, 0]"),
            (lambda: Numeric(F(3, 2), 2), "invalid premise interval [3/2, 2]"),
            (lambda: AssessmentEntry(ConditionalObject(C), -1, 1), "invalid probability interval [-1, 1]"),
            (lambda: ClassificationConfig(theta=F(1, 2)), "theta must be in (1/2, 1]"),
            (lambda: ClassificationConfig(tau_high=0, tau_low=1), "need 0 <= tau_low <= tau_high <= 1"),
            (lambda: ContingencyTable(((1, 2),)), "table must be rectangular with at least 2 rows"),
            (lambda: ContingencyTable(((1,), (2,))), "table must have at least 2 columns"),
            (lambda: ContingencyTable(((1, -2), (3, 4))), "counts must be nonnegative"),
            (lambda: ContingencyTable(((0, 0), (0, 0))), "table must have at least one positive count"),
        ],
    )
    def test_value_error(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_float_refused(self):
        with pytest.raises(TypeError, match="refusing float 0.5"):
            Bounds(0.5, 1)


class TestRepr:
    def test_formulas(self):
        assert repr(ConditionalObject(A)) == (
            "ConditionalObject(consequent=Atom(name='A'), antecedent=Top())"
        )
        assert repr(And(A, Not(C))) == "And(left=Atom(name='A'), right=Not(operand=Atom(name='C')))"
        assert repr(NegIf(A, C)) == "NegIf(antecedent=Atom(name='A'), consequent=Atom(name='C'))"

    def test_assessment(self):
        a = Assessment(((ConditionalObject(C, A), F(9, 10), 1),))
        assert repr(a) == (
            "Assessment(entries=(AssessmentEntry(obj=ConditionalObject("
            "consequent=Atom(name='C'), antecedent=Atom(name='A')), "
            "lo=Fraction(9, 10), hi=Fraction(1, 1)),))"
        )

    def test_records(self):
        assert repr(Bounds(F(1, 2), 1)) == "Bounds(lo=Fraction(1, 2), hi=Fraction(1, 1))"
        assert repr(ClassificationConfig()) == (
            "ClassificationConfig(theta=Fraction(9, 10), tau_high=Fraction(1, 2), "
            "tau_low=Fraction(1, 2))"
        )
        assert repr(Incoherent(0, "x")) == "Incoherent(level=0, description='x')"
        assert repr(LPResult("infeasible")) == "LPResult(status='infeasible', value=None, solution=None)"
        assert repr(Certain()) == "Certain()"
        assert repr(ConditionalRandomQuantity(("A",), (1, 0), A, TOP)) == (
            "ConditionalRandomQuantity(atomset=('A',), values=(1, 0), "
            "consequent=Atom(name='A'), antecedent=Top())"
        )
