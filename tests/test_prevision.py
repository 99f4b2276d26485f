from fractions import Fraction as F

import pytest

from probarg.events import And, Atom, Not, Or, constituents, eval_classical
from probarg.prevision import crq_of, nested_prevision

A = Atom("A")
B = Atom("B")
C = Atom("C")
D = Atom("D")


class TestCrq:
    def test_defined_cells(self):
        q = crq_of(C, A, F(1, 2), ["A", "C"])
        assert q.value_at({"A": True, "C": True}) == 1
        assert q.value_at({"A": True, "C": False}) == 0

    def test_void_cell_takes_mu(self):
        q = crq_of(C, A, F(1, 2), ["A", "C"])
        assert q.value_at({"A": False, "C": True}) == F(1, 2)
        assert q.value_at({"A": False, "C": False}) == F(1, 2)

    def test_mu_zero_is_conjunction_indicator(self):
        q = crq_of(C, A, F(0), ["A", "C"])
        for v in constituents(["A", "C"]):
            expected = 1 if eval_classical(And(A, C), v) else 0
            assert q.value_at(v) == expected

    def test_defined_part_independent_of_mu(self):
        for mu in (F(0), F(1, 3), F(1)):
            q = crq_of(C, A, mu, ["A", "C"])
            for v in constituents(["A", "C"]):
                if eval_classical(A, v):
                    assert q.value_at(v) in (0, 1)

    def test_valuation_missing_an_atom(self):
        q = crq_of(C, A, F(1, 2), ("A", "C"))
        for v in ({"A": True}, {"C": False}, {}):
            with pytest.raises(KeyError, match=r"valuation not over atoms \('A', 'C'\)"):
                q.value_at(v)

    def test_mu_out_of_range(self):
        with pytest.raises(ValueError):
            crq_of(C, A, F(3, 2), ["A", "C"])

    def test_bottom_antecedent_rejected(self):
        with pytest.raises(ValueError, match="unsatisfiable"):
            crq_of(C, And(A, Not(A)), F(1, 2), ["A", "C"])


class TestNestedPrevision:
    def test_counterfactual_identity(self):
        assert nested_prevision(C, A, Not(A), F(7, 10), ["A", "C"]) == F(7, 10)

    def test_boundary(self):
        assert nested_prevision(C, A, Not(A), F(0), ["A", "C"]) == 0
        assert nested_prevision(C, A, Not(A), F(1), ["A", "C"]) == 1

    def test_grid_21_values(self):
        for k in range(21):
            p = F(k, 20)
            assert nested_prevision(C, A, Not(A), p, ["A", "C"]) == p

    def test_three_atom_variants(self):
        # conditioning on not(B or D) is incompatible with antecedent B
        a = Not(Or(B, D))
        for p in (F(1, 4), F(1, 3), F(9, 10)):
            assert nested_prevision(C, B, a, p, ["B", "C", "D"]) == p

    def test_three_atom_grid(self):
        for k in range(21):
            p = F(k, 20)
            assert nested_prevision(C, B, And(Not(B), D), p, ["B", "C", "D"]) == p

    def test_compatible_antecedents_rejected(self):
        with pytest.raises(ValueError, match="incompatibility"):
            nested_prevision(C, A, A, F(1, 2), ["A", "C"])
        with pytest.raises(ValueError, match="incompatibility"):
            nested_prevision(C, B, Or(B, D), F(1, 2), ["B", "C", "D"])

    def test_unsatisfiable_conditioning_event_rejected(self):
        with pytest.raises(ValueError, match="unsatisfiable"):
            nested_prevision(C, A, And(Not(A), A), F(1, 2), ["A", "C"])
