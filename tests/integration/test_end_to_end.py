"""Integration tests exercising the public API across subsystems."""

from __future__ import annotations

import pytest

from repro import NBLConfig, NBLSATSolver
from repro.analog.compiler import AnalogNBLEngine
from repro.cnf import (
    CNFFormula,
    graph_coloring_formula,
    cycle_graph_edges,
    parse_dimacs,
    planted_ksat,
    to_dimacs,
)
from repro.core.assignment import find_satisfying_assignment
from repro.core.symbolic import SymbolicNBLEngine
from repro.hybrid import HybridNBLSolver
from repro.noise import BipolarCarrier
from repro.sbl import SBLNBLEngine
from repro.solvers import CDCLSolver, DPLLSolver


class TestDimacsToNBLPipeline:
    DIMACS = """c tiny EDA-flavoured instance
p cnf 3 4
1 2 0
-1 3 0
-2 3 0
-3 1 0
"""

    def test_parse_check_solve(self):
        formula = parse_dimacs(self.DIMACS)
        check = NBLSATSolver("symbolic").check(formula)
        assert check.satisfiable
        solved = NBLSATSolver("symbolic").solve(formula)
        assert solved.verified
        assert formula.evaluate(solved.assignment.as_dict())

    def test_roundtrip_preserves_decisions(self):
        formula = parse_dimacs(self.DIMACS)
        reparsed = parse_dimacs(to_dimacs(formula))
        assert NBLSATSolver("symbolic").check(reparsed).satisfiable


class TestEngineAgreementAcrossRealizations:
    """All realizations must agree on the paper's two instances."""

    def test_all_engines_agree(self, sat_instance, unsat_instance):
        config = NBLConfig(
            carrier=BipolarCarrier(), max_samples=100_000, block_size=25_000,
            min_samples=25_000, seed=5,
        )
        rtw = NBLConfig(
            carrier=BipolarCarrier(), max_samples=100_000, block_size=10_000, seed=5
        )
        engines_sat = [
            NBLSATSolver("symbolic").check(sat_instance),
            NBLSATSolver("sampled", config).check(sat_instance),
            AnalogNBLEngine(sat_instance, carrier=BipolarCarrier(), seed=5, max_samples=100_000).check(),
            NBLSATSolver("sampled", rtw).check(sat_instance),
            SBLNBLEngine(sat_instance, seed=5, max_samples=150_000).check(),
        ]
        engines_unsat = [
            NBLSATSolver("symbolic").check(unsat_instance),
            NBLSATSolver("sampled", config).check(unsat_instance),
            AnalogNBLEngine(unsat_instance, carrier=BipolarCarrier(), seed=5, max_samples=100_000).check(),
            NBLSATSolver("sampled", rtw).check(unsat_instance),
            SBLNBLEngine(unsat_instance, seed=5, max_samples=150_000).check(),
        ]
        assert all(result.satisfiable for result in engines_sat)
        assert all(not result.satisfiable for result in engines_unsat)


class TestNBLVersusClassicalSolvers:
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_instances_end_to_end(self, seed):
        formula, planted = planted_ksat(6, 18, 3, seed=seed)
        nbl = NBLSATSolver("symbolic").solve(formula)
        dpll = DPLLSolver().solve(formula)
        cdcl = CDCLSolver().solve(formula)
        hybrid = HybridNBLSolver().solve(formula)
        assert nbl.satisfiable and dpll.is_sat and cdcl.is_sat and hybrid.is_sat
        assert formula.evaluate(nbl.assignment.as_dict())
        assert formula.evaluate(planted.as_dict())

    def test_graph_coloring_workflow(self):
        # The intro's EDA motivation: feasibility questions become SAT calls.
        triangle = graph_coloring_formula(cycle_graph_edges(3), 3, 3)
        infeasible = graph_coloring_formula(cycle_graph_edges(3), 3, 2)
        assert NBLSATSolver("symbolic").check(triangle).satisfiable
        assert not NBLSATSolver("symbolic").check(infeasible).satisfiable
        assert CDCLSolver().solve(infeasible).is_unsat


class TestAlgorithm2AcrossEngines:
    def test_analog_engine_drives_algorithm2(self, sat_instance):
        engine = AnalogNBLEngine(
            sat_instance, carrier=BipolarCarrier(), seed=9, max_samples=120_000
        )
        result = find_satisfying_assignment(engine)
        assert result.verified

    def test_symbolic_engine_counts_checks(self):
        formula = CNFFormula.from_ints([[1, 2, 3], [-1, -2], [2, -3]])
        engine = SymbolicNBLEngine(formula)
        result = find_satisfying_assignment(engine)
        assert result.verified
        assert result.num_checks == formula.num_variables + 1
