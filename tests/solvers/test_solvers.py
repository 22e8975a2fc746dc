"""Tests for the baseline SAT solvers."""

from __future__ import annotations

import pytest

from repro.cnf.evaluate import count_models
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import planted_ksat, random_ksat
from repro.cnf.paper_instances import (
    example7_instance,
    section4_sat_instance,
    section4_unsat_instance,
)
from repro.cnf.structured import graph_coloring_formula, cycle_graph_edges, pigeonhole_formula
from repro.exceptions import SolverError
from repro.solvers.base import SAT, UNKNOWN, UNSAT
from repro.solvers.brute_force import BruteForceSolver
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import (
    DPLLSolver,
    most_frequent_variable,
    pure_literal_eliminate,
    unit_propagate,
)
from repro.solvers.gsat import GSATSolver
from repro.solvers.registry import available_solvers, make_solver
from repro.solvers.walksat import WalkSATSolver

COMPLETE_SOLVERS = [BruteForceSolver, DPLLSolver, CDCLSolver]


class TestBruteForce:
    def test_paper_instances(self):
        solver = BruteForceSolver()
        assert solver.solve(section4_sat_instance()).is_sat
        assert solver.solve(section4_unsat_instance()).is_unsat

    def test_model_count(self):
        assert BruteForceSolver().model_count(section4_sat_instance()) == 1
        assert BruteForceSolver().model_count(section4_unsat_instance()) == 0

    def test_refuses_large_instances(self):
        big = CNFFormula.from_ints([[1]], num_variables=30)
        with pytest.raises(SolverError):
            BruteForceSolver().solve(big)

    def test_empty_formula(self):
        assert BruteForceSolver().solve(CNFFormula([])).is_sat
        falsum = CNFFormula([[]], num_variables=0)
        assert BruteForceSolver().solve(falsum).is_unsat


class TestDPLL:
    def test_paper_instances(self):
        solver = DPLLSolver()
        assert solver.solve(section4_sat_instance()).is_sat
        assert solver.solve(example7_instance()).is_unsat

    def test_pigeonhole(self):
        assert DPLLSolver().solve(pigeonhole_formula(4, 3)).is_unsat
        assert DPLLSolver().solve(pigeonhole_formula(3, 3)).is_sat

    def test_model_is_complete_and_satisfying(self):
        formula = random_ksat(9, 30, 3, seed=2)
        result = DPLLSolver().solve(formula)
        if result.is_sat:
            assert result.assignment.is_complete(9)
            assert formula.evaluate(result.assignment.as_dict())

    def test_custom_branching_respected(self):
        calls = []

        def heuristic(residual, assignment):
            calls.append(len(assignment))
            return None  # fall back to default

        DPLLSolver(branching=heuristic).solve(random_ksat(8, 30, 3, seed=4))
        assert calls  # the heuristic was consulted

    def test_most_frequent_variable_heuristic(self):
        formula = CNFFormula.from_ints([[1, 2], [1, 3], [1, -2]])
        variable, value = most_frequent_variable(formula, {})
        assert variable == 1 and value is True

    def test_without_pure_literals(self):
        formula = random_ksat(8, 25, 3, seed=6)
        with_pure = DPLLSolver(use_pure_literals=True).solve(formula)
        without = DPLLSolver(use_pure_literals=False).solve(formula)
        assert with_pure.status == without.status

    def test_stats_populated(self):
        result = DPLLSolver().solve(pigeonhole_formula(4, 3))
        assert result.stats.decisions > 0
        assert result.stats.conflicts > 0
        assert result.stats.elapsed_seconds >= 0.0

    def test_invalid_configuration(self):
        with pytest.raises(SolverError):
            DPLLSolver(max_decisions=0)


class TestUnitPropagation:
    def test_propagates_chain(self):
        formula = CNFFormula.from_ints([[1], [-1, 2], [-2, 3]])
        result = unit_propagate(formula)
        assert result.forced == {1: True, 2: True, 3: True}
        assert not result.conflict
        assert result.formula.num_clauses == 0

    def test_detects_conflict(self):
        formula = CNFFormula.from_ints([[1], [-1]])
        assert unit_propagate(formula).conflict

    def test_respects_initial_assignment(self):
        formula = CNFFormula.from_ints([[1, 2]])
        result = unit_propagate(formula, {1: False})
        assert result.forced[2] is True

    def test_no_units_is_noop(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
        result = unit_propagate(formula)
        assert result.forced == {}
        assert result.formula == formula


class TestPureLiterals:
    def test_pure_literal_bound(self):
        formula = CNFFormula.from_ints([[1, 2], [1, -2]])
        result = pure_literal_eliminate(formula)
        assert result.forced[1] is True
        assert result.formula.num_clauses == 0

    def test_mixed_polarity_not_bound(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
        result = pure_literal_eliminate(formula)
        assert result.forced == {}


class TestCDCL:
    def test_paper_instances(self):
        solver = CDCLSolver()
        assert solver.solve(section4_sat_instance()).is_sat
        assert solver.solve(section4_unsat_instance()).is_unsat

    def test_pigeonhole_unsat_with_learning(self):
        result = CDCLSolver().solve(pigeonhole_formula(4, 3))
        assert result.is_unsat
        assert result.stats.learned_clauses > 0

    def test_coloring_instances(self):
        assert CDCLSolver().solve(
            graph_coloring_formula(cycle_graph_edges(5), 5, 2)
        ).is_unsat
        assert CDCLSolver().solve(
            graph_coloring_formula(cycle_graph_edges(5), 5, 3)
        ).is_sat

    def test_empty_and_unit_handling(self):
        assert CDCLSolver().solve(CNFFormula([[]], num_variables=1)).is_unsat
        assert CDCLSolver().solve(CNFFormula.from_ints([[1], [-2]])).is_sat
        assert CDCLSolver().solve(CNFFormula.from_ints([[1], [-1]])).is_unsat

    def test_tautological_clauses_ignored(self):
        formula = CNFFormula.from_ints([[1, -1], [2]])
        result = CDCLSolver().solve(formula)
        assert result.is_sat

    def test_restarts_occur_on_hard_instance(self):
        result = CDCLSolver(restart_base=5).solve(pigeonhole_formula(5, 4))
        assert result.is_unsat
        assert result.stats.restarts > 0

    def test_invalid_configuration(self):
        with pytest.raises(SolverError):
            CDCLSolver(vsids_decay=1.5)
        with pytest.raises(SolverError):
            CDCLSolver(restart_base=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_brute_force_random(self, seed):
        formula = random_ksat(8, 34, 3, seed=seed)
        assert CDCLSolver().solve(formula).status == BruteForceSolver().solve(formula).status


class TestLocalSearch:
    def test_walksat_finds_planted_model(self):
        formula, _ = planted_ksat(10, 30, 3, seed=1)
        result = WalkSATSolver(seed=1).solve(formula)
        assert result.is_sat

    def test_gsat_finds_planted_model(self):
        formula, _ = planted_ksat(8, 24, 3, seed=2)
        result = GSATSolver(seed=2).solve(formula)
        assert result.is_sat

    def test_unsat_returns_unknown(self):
        solver = WalkSATSolver(max_flips=200, max_tries=2, seed=0)
        assert solver.solve(section4_unsat_instance()).status == UNKNOWN
        gsat = GSATSolver(max_flips=200, max_tries=2, seed=0)
        assert gsat.solve(section4_unsat_instance()).status == UNKNOWN

    def test_empty_clause_returns_unknown(self):
        formula = CNFFormula([[]], num_variables=1)
        assert WalkSATSolver(seed=0).solve(formula).status == UNKNOWN

    def test_flip_counters(self):
        formula, _ = planted_ksat(8, 24, 3, seed=3)
        result = WalkSATSolver(seed=3).solve(formula)
        assert result.stats.flips >= 0 and result.stats.restarts >= 1

    def test_invalid_parameters(self):
        with pytest.raises(SolverError):
            WalkSATSolver(max_flips=0)
        with pytest.raises(SolverError):
            WalkSATSolver(noise=1.5)
        with pytest.raises(SolverError):
            GSATSolver(walk_probability=-0.1)


class TestRegistry:
    def test_available(self):
        names = available_solvers()
        assert set(names) == {
            "brute-force",
            "dpll",
            "cdcl",
            "walksat",
            "gsat",
            "hybrid",
            "nbl-symbolic",
            "nbl-sampled",
        }

    def test_make_solver(self):
        assert isinstance(make_solver("cdcl"), CDCLSolver)
        assert isinstance(make_solver("walksat", seed=1), WalkSATSolver)

    def test_unknown_solver(self):
        with pytest.raises(SolverError):
            make_solver("minisat")


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_complete_solvers_agree(self, seed):
        formula = random_ksat(7, 29, 3, seed=seed)
        expected = SAT if count_models(formula) > 0 else UNSAT
        for solver_class in COMPLETE_SOLVERS:
            result = solver_class().solve(formula)
            assert result.status == expected
            if result.is_sat:
                assert formula.evaluate(result.assignment.as_dict())
