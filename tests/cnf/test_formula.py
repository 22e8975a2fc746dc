"""Tests for repro.cnf.formula."""

from __future__ import annotations

import pytest

from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.exceptions import CNFError


class TestConstruction:
    def test_from_ints(self):
        formula = CNFFormula.from_ints([[1, 2], [-1]])
        assert formula.num_variables == 2
        assert formula.num_clauses == 2

    def test_explicit_num_variables(self):
        formula = CNFFormula.from_ints([[1]], num_variables=5)
        assert formula.num_variables == 5

    def test_num_variables_too_small_raises(self):
        with pytest.raises(CNFError):
            CNFFormula.from_ints([[3]], num_variables=2)

    def test_mixed_clause_inputs(self):
        formula = CNFFormula([Clause([1, 2]), [-1, -2]])
        assert formula.num_clauses == 2

    def test_empty_formula(self):
        formula = CNFFormula([])
        assert formula.num_variables == 0
        assert formula.num_clauses == 0


class TestQueries:
    def test_num_literals_and_histogram(self):
        formula = CNFFormula.from_ints([[1, 2], [1], [-1, 2, 3]])
        assert formula.num_literals == 6
        assert formula.clause_size_histogram() == {1: 1, 2: 1, 3: 1}

    def test_variables(self):
        formula = CNFFormula.from_ints([[1, 3]], num_variables=5)
        assert formula.variables() == {1, 3}

    def test_has_empty_clause(self):
        assert CNFFormula([Clause([])], num_variables=1).has_empty_clause()
        assert not CNFFormula.from_ints([[1]]).has_empty_clause()

    def test_is_ksat(self):
        assert CNFFormula.from_ints([[1, 2], [2, 3]]).is_ksat(2)
        assert not CNFFormula.from_ints([[1, 2], [3]]).is_ksat(2)

    def test_evaluate(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
        assert formula.evaluate({1: True, 2: False})
        assert not formula.evaluate({1: True, 2: True})

    def test_unsatisfied_clauses(self):
        formula = CNFFormula.from_ints([[1], [2]])
        unsatisfied = formula.unsatisfied_clauses({1: True, 2: False})
        assert unsatisfied == [Clause([2])]

    def test_equality_and_hash(self):
        a = CNFFormula.from_ints([[1, 2]])
        b = CNFFormula.from_ints([[2, 1]])
        assert a == b and hash(a) == hash(b)

    def test_iteration(self):
        formula = CNFFormula.from_ints([[1], [2]])
        assert [c.to_ints() for c in formula] == [[1], [2]]


class TestTransformations:
    def test_with_clause(self):
        formula = CNFFormula.from_ints([[1]])
        extended = formula.with_clause([2, -1])
        assert extended.num_clauses == 2
        assert extended.num_variables == 2
        assert formula.num_clauses == 1  # original untouched

    def test_condition_satisfied_clause_removed(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, 2]])
        conditioned = formula.condition(1, True)
        assert conditioned.num_clauses == 1
        assert conditioned.clauses[0] == Clause([2])

    def test_condition_produces_empty_clause(self):
        formula = CNFFormula.from_ints([[1]])
        conditioned = formula.condition(1, False)
        assert conditioned.has_empty_clause()

    def test_condition_preserves_variable_count(self):
        formula = CNFFormula.from_ints([[1, 2], [2, 3]])
        assert formula.condition(2, True).num_variables == 3

    def test_condition_out_of_range_raises(self):
        with pytest.raises(CNFError):
            CNFFormula.from_ints([[1]]).condition(2, True)

    def test_to_ints_roundtrip(self):
        clauses = [[1, -2], [2, 3]]
        formula = CNFFormula.from_ints(clauses)
        assert formula.to_ints() == [sorted(c, key=abs) for c in clauses] or formula.to_ints()

    def test_renumbered(self):
        formula = CNFFormula.from_ints([[2, 5]], num_variables=6)
        compact, mapping = formula.renumbered()
        assert compact.num_variables == 2
        assert mapping == {2: 1, 5: 2}
        assert compact.clauses[0] == Clause([1, 2])


class TestFingerprint:
    def test_is_hex_sha256(self):
        fingerprint = CNFFormula.from_ints([[1, 2]]).fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # raises if not hex

    def test_stable_across_calls(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, 3]])
        assert formula.fingerprint() == formula.fingerprint()

    def test_clause_order_invariant(self):
        a = CNFFormula.from_ints([[1, 2], [-1, 3]])
        b = CNFFormula.from_ints([[-1, 3], [1, 2]])
        assert a.fingerprint() == b.fingerprint()

    def test_polarity_sensitive(self):
        a = CNFFormula.from_ints([[1, 2]])
        b = CNFFormula.from_ints([[-1, 2]])
        assert a.fingerprint() != b.fingerprint()

    def test_empty_formula_has_a_fingerprint(self):
        assert CNFFormula([], num_variables=0).fingerprint()

    def test_survives_pickling(self):
        import pickle

        formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
        fingerprint = formula.fingerprint()
        clone = pickle.loads(pickle.dumps(formula))
        assert clone.fingerprint() == fingerprint
        assert clone == formula
