"""Tests for repro.cnf.formula."""

from __future__ import annotations

import pytest

from repro.cnf.formula import (
    CNFFormula,
    canonical_clause,
    evaluate_clause,
    is_tautology,
)
from repro.exceptions import CNFError


class TestCanonicalClause:
    @pytest.mark.parametrize(
        "literals, expected",
        [
            ([2, -1, 2], (-1, 2)),
            ([-3, 3], (3, -3)),
            ([2, 1], (1, 2)),
            ((1, 1, -2), (1, -2)),
            ([], ()),
        ],
        ids=["dedup", "positive-first", "sorted", "tuple-input", "empty"],
    )
    def test_order_and_dedup(self, literals, expected):
        assert canonical_clause(literals) == expected
        assert CNFFormula([literals]).clauses == (expected,)

    @pytest.mark.parametrize(
        "bad", [0, True, False, 1.0, "1", None, [1], {"a": 1}], ids=repr
    )
    def test_rejects_non_literals(self, bad):
        with pytest.raises(CNFError):
            canonical_clause([1, bad])
        with pytest.raises(CNFError):
            CNFFormula.from_ints([[bad]])

    def test_from_ints_rejects_bool(self):
        with pytest.raises(CNFError):
            CNFFormula.from_ints([[True]])

    def test_zero_is_not_a_literal(self):
        with pytest.raises(CNFError):
            CNFFormula([[1], [0]])
        with pytest.raises(CNFError):
            CNFFormula.from_ints([[1]]).with_clause([0])

    @pytest.mark.parametrize(
        "clause, expected",
        [((1, -1), True), ((2, 3, -2), True), ((1, -2), False), ((), False)],
        ids=["pair", "pair-apart", "no-pair", "empty"],
    )
    def test_is_tautology(self, clause, expected):
        assert is_tautology(clause) is expected


class TestEvaluateClause:
    @pytest.mark.parametrize(
        "clause, assignment, expected",
        [
            ((1, -2), {1: False, 2: False}, True),
            ((1, -2), {1: False, 2: True}, False),
            ((), {1: True}, False),
        ],
        ids=["true", "false", "empty-clause"],
    )
    def test_truth_value(self, clause, assignment, expected):
        assert evaluate_clause(clause, assignment) is expected

    def test_missing_variable_raises(self):
        with pytest.raises(CNFError):
            evaluate_clause((1, 2), {1: False})

    def test_unit_clause_follows_literal_polarity(self):
        assert evaluate_clause((1,), {1: True}) is True
        assert evaluate_clause((1,), {1: False}) is False
        assert evaluate_clause((-1,), {1: False}) is True


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
        formula = CNFFormula([(2, 1), [-1, -2]])
        assert formula.clauses == ((1, 2), (-1, -2))
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

    def test_variables_ignore_polarity(self):
        assert CNFFormula.from_ints([[1, -2, 3]]).variables() == {1, 2, 3}

    def test_has_empty_clause(self):
        assert CNFFormula([[]], num_variables=1).has_empty_clause()
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
        assert unsatisfied == [(2,)]

    def test_equality_and_hash(self):
        a = CNFFormula.from_ints([[1, 2]])
        b = CNFFormula.from_ints([[2, 1]])
        assert a == b and hash(a) == hash(b)

    def test_iteration(self):
        formula = CNFFormula.from_ints([[1], [2]])
        assert list(formula) == [(1,), (2,)]

    @pytest.mark.parametrize(
        "clauses, text",
        [
            ([[-2, 1]], "(x1 + ~x2)"),
            ([[2], [-2]], "(x2) · (~x2)"),
            ([[1], []], "(x1) · (⊥)"),
            ([], "(empty CNF)"),
        ],
        ids=["clause", "literal", "empty-clause", "empty-formula"],
    )
    def test_str_paper_notation(self, clauses, text):
        assert str(CNFFormula(clauses, num_variables=2)) == text


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
        assert conditioned.clauses[0] == (2,)

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
        assert formula.to_ints() == [sorted(c, key=abs) for c in clauses]
        assert CNFFormula.from_ints(formula.to_ints()) == formula

    def test_to_ints_lists_each_canonical_clause(self):
        assert CNFFormula.from_ints([[3, -1]]).to_ints() == [[-1, 3]]

    def test_renumbered(self):
        formula = CNFFormula.from_ints([[2, 5]], num_variables=6)
        compact, mapping = formula.renumbered()
        assert compact.num_variables == 2
        assert mapping == {2: 1, 5: 2}
        assert compact.clauses[0] == (1, 2)


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
