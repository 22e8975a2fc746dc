"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf.assignment import Assignment
from repro.cnf.dimacs import parse_dimacs, to_dimacs
from repro.cnf.evaluate import count_models, satisfying_minterm_mask
from repro.cnf.formula import CNFFormula, evaluate_clause
from repro.core.sigma import satisfying_minterms
from repro.core.symbolic import SymbolicNBLEngine
from repro.hyperspace.minterm import MintermSet
from repro.solvers.brute_force import BruteForceSolver
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import DPLLSolver

MAX_VARS = 4

# -- strategies ---------------------------------------------------------------

literal_ints = st.integers(min_value=1, max_value=MAX_VARS).flatmap(
    lambda v: st.sampled_from([v, -v])
)

clauses = st.lists(literal_ints, min_size=1, max_size=3)

formulas = st.lists(clauses, min_size=1, max_size=6).map(
    lambda clause_list: CNFFormula.from_ints(clause_list, num_variables=MAX_VARS)
)

assignments = st.lists(st.booleans(), min_size=MAX_VARS, max_size=MAX_VARS).map(
    lambda bits: {i + 1: bit for i, bit in enumerate(bits)}
)

bindings = st.dictionaries(
    st.integers(min_value=1, max_value=MAX_VARS), st.booleans(), max_size=MAX_VARS
)


class TestLiteralAndClauseProperties:
    @given(clauses, assignments)
    @settings(max_examples=100, deadline=None)
    def test_clause_evaluation_is_disjunction(self, ints, assignment):
        expected = any(assignment[abs(v)] == (v > 0) for v in ints)
        assert evaluate_clause(ints, assignment) == expected


class TestFormulaProperties:
    @given(formulas)
    @settings(max_examples=60, deadline=None)
    def test_dimacs_roundtrip(self, formula):
        assert parse_dimacs(to_dimacs(formula)) == formula

    @given(formulas, assignments)
    @settings(max_examples=100, deadline=None)
    def test_evaluation_is_conjunction_of_clauses(self, formula, assignment):
        expected = all(evaluate_clause(clause, assignment) for clause in formula)
        assert formula.evaluate(assignment) == expected

    @given(formulas, st.integers(min_value=1, max_value=MAX_VARS), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_conditioning_preserves_model_count(self, formula, variable, value):
        """Models of F with x=v correspond exactly to models of F|x=v with x free."""
        conditioned = formula.condition(variable, value)
        mask = satisfying_minterm_mask(formula)
        restricted = 0
        for index in range(mask.size):
            if mask[index] and bool((index >> (variable - 1)) & 1) == value:
                restricted += 1
        # The conditioned formula no longer mentions the bound variable, so
        # every restricted model of the original appears twice (once per free
        # value of that variable).
        assert count_models(conditioned) == 2 * restricted

    @given(formulas)
    @settings(max_examples=60, deadline=None)
    def test_model_count_bounds(self, formula):
        count = count_models(formula)
        assert 0 <= count <= 2**MAX_VARS


class TestMintermSetProperties:
    @given(bindings)
    @settings(max_examples=60, deadline=None)
    def test_cube_size(self, cube_bindings):
        mset = MintermSet.from_cube(MAX_VARS, cube_bindings)
        assert mset.count() == 2 ** (MAX_VARS - len(cube_bindings))

    @given(formulas)
    @settings(max_examples=60, deadline=None)
    def test_union_of_clause_sets_covers_models(self, formula):
        models = satisfying_minterms(formula)
        full = MintermSet.full(MAX_VARS)
        assert (models & full) == models
        assert models.count() == count_models(formula)

    @given(formulas, bindings)
    @settings(max_examples=80, deadline=None)
    def test_restriction_never_increases_count(self, formula, cube_bindings):
        models = satisfying_minterms(formula)
        assert models.restrict(cube_bindings).count() <= models.count()


class TestEngineAndSolverProperties:
    @given(formulas)
    @settings(max_examples=50, deadline=None)
    def test_symbolic_engine_matches_brute_force(self, formula):
        expected = count_models(formula) > 0
        assert SymbolicNBLEngine(formula).check().satisfiable == expected

    @given(formulas, bindings)
    @settings(max_examples=50, deadline=None)
    def test_symbolic_model_count_under_bindings(self, formula, cube_bindings):
        engine = SymbolicNBLEngine(formula)
        mask = satisfying_minterm_mask(formula)
        expected = 0
        for index in range(mask.size):
            if not mask[index]:
                continue
            if all(
                bool((index >> (var - 1)) & 1) == val
                for var, val in cube_bindings.items()
            ):
                expected += 1
        assert engine.model_count(cube_bindings) == expected

    @given(formulas)
    @settings(max_examples=30, deadline=None)
    def test_complete_solvers_agree(self, formula):
        statuses = {
            BruteForceSolver().solve(formula).status,
            DPLLSolver().solve(formula).status,
            CDCLSolver().solve(formula).status,
        }
        assert len(statuses) == 1

    @given(formulas)
    @settings(max_examples=30, deadline=None)
    def test_returned_models_satisfy(self, formula):
        result = CDCLSolver().solve(formula)
        if result.is_sat:
            assert formula.evaluate(result.assignment.as_dict())


class TestAssignmentProperties:
    @given(st.integers(min_value=0, max_value=2**MAX_VARS - 1))
    @settings(max_examples=60, deadline=None)
    def test_minterm_index_roundtrip(self, index):
        assignment = Assignment.from_minterm_index(index, MAX_VARS)
        assert assignment.to_minterm_index(MAX_VARS) == index
