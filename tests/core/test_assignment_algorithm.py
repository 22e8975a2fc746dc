"""Tests for Algorithm 2 (and its cube / prime-implicant variants)."""

from __future__ import annotations

import pytest

from repro.cnf.evaluate import count_models, enumerate_models
from repro.cnf.generators import planted_ksat, random_ksat
from repro.cnf.structured import all_equal_formula, parity_chain_formula
from repro.core.assignment import (
    find_prime_implicant_cube,
    find_satisfying_assignment,
    find_satisfying_cube,
)
from repro.core.checker import make_engine
from repro.core.config import NBLConfig
from repro.core.solver import NBLSATSolver
from repro.core.symbolic import SymbolicNBLEngine
from repro.noise.telegraph import BipolarCarrier


class TestMintermVariantSymbolic:
    def test_paper_example8_walkthrough(self, example6):
        """Example 8: binding x1=1 stays SAT, then x2=1 goes UNSAT -> x1 ~x2."""
        engine = SymbolicNBLEngine(example6)
        result = find_satisfying_assignment(engine)
        assert result.satisfiable and result.verified
        assert result.assignment == {1: True, 2: False}
        # One initial check plus one per variable.
        assert result.num_checks == example6.num_variables + 1

    def test_section4_instance(self, sat_instance):
        result = find_satisfying_assignment(SymbolicNBLEngine(sat_instance))
        assert result.assignment == {1: False, 2: True}
        assert result.verified

    def test_unsat_returns_no_assignment(self, unsat_instance):
        result = find_satisfying_assignment(SymbolicNBLEngine(unsat_instance))
        assert not result.satisfiable
        assert result.assignment is None
        assert result.num_checks == 1

    def test_check_count_bound(self):
        for seed in range(5):
            formula, _ = planted_ksat(6, 15, 3, seed=seed)
            result = find_satisfying_assignment(SymbolicNBLEngine(formula))
            assert result.verified
            assert result.num_checks == formula.num_variables + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_verified(self, seed):
        formula = random_ksat(7, 20, 3, seed=seed)
        engine = SymbolicNBLEngine(formula)
        result = find_satisfying_assignment(engine)
        assert result.satisfiable == (count_models(formula) > 0)
        if result.satisfiable:
            assert result.verified
            assert formula.evaluate(result.assignment.as_dict())

    def test_initial_check_reuse(self, example6):
        engine = SymbolicNBLEngine(example6)
        initial = engine.check()
        result = find_satisfying_assignment(engine, initial_check=initial)
        # The provided initial check is not re-run, so only n checks follow.
        assert result.num_checks == example6.num_variables

    def test_requires_formula_attribute(self):
        class Broken:
            def check(self, bindings=None):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(TypeError):
            find_satisfying_assignment(Broken())


class TestMintermVariantSampled:
    def test_sampled_engine_recovers_model(self, sat_instance, fast_bipolar_config):
        engine = make_engine(sat_instance, "sampled", fast_bipolar_config)
        result = find_satisfying_assignment(engine)
        assert result.satisfiable and result.verified
        assert result.total_samples > 0

    def test_total_samples_accumulates(self, example6, fast_bipolar_config):
        engine = make_engine(example6, "sampled", fast_bipolar_config)
        result = find_satisfying_assignment(engine)
        assert result.total_samples == sum(c.samples_used for c in result.checks)


class TestCubeVariant:
    def test_unsat_short_circuits(self, unsat_instance):
        result = find_satisfying_cube(SymbolicNBLEngine(unsat_instance))
        assert not result.satisfiable

    def test_example6_all_dont_cares(self, example6):
        """Both polarities of each variable keep a model, so the paper's rule
        drops every variable — the cube covers a model but is not an implicant."""
        result = find_satisfying_cube(SymbolicNBLEngine(example6))
        assert result.satisfiable
        assert sorted(result.dont_care_variables) == [1, 2]
        assert result.verified  # the (empty) cube still contains a model

    def test_single_model_instance_yields_full_minterm(self, sat_instance):
        result = find_satisfying_cube(SymbolicNBLEngine(sat_instance))
        assert result.assignment == {1: False, 2: True}
        assert result.dont_care_variables == []
        assert result.verified

    def test_check_count(self, sat_instance):
        result = find_satisfying_cube(SymbolicNBLEngine(sat_instance))
        # one initial check + two per variable
        assert result.num_checks == 1 + 2 * sat_instance.num_variables


class TestPrimeImplicantVariant:
    def test_parity_has_no_reducible_variables(self):
        formula = parity_chain_formula(3)
        result = find_prime_implicant_cube(SymbolicNBLEngine(formula))
        assert result.satisfiable and result.verified
        assert result.dont_care_variables == []

    def test_all_equal_formula_keeps_chain(self):
        formula = all_equal_formula(3)
        result = find_prime_implicant_cube(SymbolicNBLEngine(formula))
        assert result.verified

    def test_unconstrained_variable_dropped(self):
        # x3 is unconstrained: (x1+x2)(~x1+~x2) over three declared variables.
        from repro.cnf.formula import CNFFormula

        formula = CNFFormula.from_ints([[1, 2], [-1, -2]], num_variables=3)
        result = find_prime_implicant_cube(SymbolicNBLEngine(formula))
        assert result.verified
        assert 3 in result.dont_care_variables
        assert 3 not in result.assignment.assigned_variables()

    def test_unsat_passthrough(self, unsat_instance):
        result = find_prime_implicant_cube(SymbolicNBLEngine(unsat_instance))
        assert not result.satisfiable


class TestNblSatSolve:
    def test_symbolic_solve(self, sat_instance):
        result = NBLSATSolver("symbolic").solve(sat_instance)
        assert result.satisfiable and result.verified

    def test_cube_flag(self, example6):
        result = NBLSATSolver("symbolic").solve(example6, cube=True)
        assert result.satisfiable
        assert result.dont_care_variables

    def test_sampled_solve(self, sat_instance):
        config = NBLConfig(
            carrier=BipolarCarrier(), max_samples=60_000, block_size=15_000,
            min_samples=15_000, seed=21,
        )
        result = NBLSATSolver("sampled", config).solve(sat_instance)
        assert result.satisfiable and result.verified

    def test_every_model_reported_is_a_model(self):
        for seed in range(4):
            formula = random_ksat(5, 12, 3, seed=seed)
            result = NBLSATSolver("symbolic").solve(formula)
            if result.satisfiable:
                assert formula.evaluate(result.assignment.as_dict())
                models = {m.to_minterm_index(5) for m in enumerate_models(formula)}
                assert result.assignment.to_minterm_index(5) in models
