"""Tests for Algorithm 1 entry points and the NBLSATSolver facade."""

from __future__ import annotations

import pytest

from repro.cnf.formula import CNFFormula
from repro.core.checker import ENGINE_NAMES, make_engine
from repro.core.config import NBLConfig
from repro.core.sampled import SampledNBLEngine
from repro.core.solver import NBLSATSolver
from repro.core.symbolic import SymbolicNBLEngine
from repro.exceptions import EngineError
from repro.noise.telegraph import BipolarCarrier


class TestMakeEngine:
    def test_engine_names_constant(self):
        assert set(ENGINE_NAMES) == {"sampled", "symbolic"}

    def test_sampled(self, sat_instance, fast_bipolar_config):
        engine = make_engine(sat_instance, "sampled", fast_bipolar_config)
        assert isinstance(engine, SampledNBLEngine)
        assert engine.config is fast_bipolar_config

    def test_symbolic_uses_config_carrier(self, sat_instance, fast_bipolar_config):
        engine = make_engine(sat_instance, "symbolic", fast_bipolar_config)
        assert isinstance(engine, SymbolicNBLEngine)
        assert isinstance(engine.carrier, BipolarCarrier)

    def test_unknown_engine(self, sat_instance):
        with pytest.raises(EngineError):
            make_engine(sat_instance, "quantum")


class TestNblSatCheck:
    def test_symbolic_decisions(self, sat_instance, unsat_instance):
        assert NBLSATSolver("symbolic").check(sat_instance).satisfiable
        assert not NBLSATSolver("symbolic").check(unsat_instance).satisfiable

    def test_sampled_decision(self, sat_instance, fast_bipolar_config):
        result = NBLSATSolver("sampled", fast_bipolar_config).check(sat_instance)
        assert result.satisfiable
        assert result.samples_used > 0

    def test_bindings_forwarded(self, sat_instance):
        result = NBLSATSolver("symbolic").check(sat_instance, {1: True})
        assert not result.satisfiable  # only model is ~x1 x2


class TestSolverFacade:
    def test_invalid_engine_rejected(self):
        with pytest.raises(EngineError):
            NBLSATSolver(engine="other")

    def test_check_and_solve_symbolic(self, sat_instance, unsat_instance):
        solver = NBLSATSolver(engine="symbolic")
        assert solver.check(sat_instance).satisfiable
        result = solver.solve(sat_instance)
        assert result.satisfiable and result.verified
        assert result.assignment == {1: False, 2: True}
        assert not solver.solve(unsat_instance).satisfiable

    def test_solve_sampled(self, sat_instance, fast_bipolar_config):
        solver = NBLSATSolver(engine="sampled", config=fast_bipolar_config)
        result = solver.solve(sat_instance)
        assert result.satisfiable and result.verified

    def test_solve_cube_variant(self, example6):
        solver = NBLSATSolver(engine="symbolic")
        result = solver.solve(example6, cube=True)
        assert result.satisfiable
        # Example 6 has models x1~x2 and ~x1x2: each variable individually is
        # a don't-care under the paper's rule.
        assert sorted(result.dont_care_variables) == [1, 2]

    def test_solver_reusable_across_instances(self, sat_instance, example7):
        solver = NBLSATSolver(engine="symbolic")
        assert solver.check(sat_instance).satisfiable
        assert not solver.check(example7).satisfiable

    def test_properties(self, fast_bipolar_config):
        solver = NBLSATSolver(engine="sampled", config=fast_bipolar_config)
        assert solver.engine_name == "sampled"
        assert solver.config is fast_bipolar_config


class TestEmptyFormulaHandling:
    def test_zero_clause_formula_rejected_by_sampled(self):
        formula = CNFFormula([], num_variables=2)
        config = NBLConfig(carrier=BipolarCarrier(), max_samples=1000)
        with pytest.raises(EngineError):
            make_engine(formula, "sampled", config)
