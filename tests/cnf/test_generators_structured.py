"""Tests for repro.cnf.generators and repro.cnf.structured."""

from __future__ import annotations

import pytest

from repro.cnf.evaluate import count_models
from repro.cnf.formula import is_tautology
from repro.cnf.generators import (
    PHASE_TRANSITION_RATIO_3SAT,
    phase_transition_family,
    planted_ksat,
    random_ksat,
)
from repro.cnf.structured import (
    all_equal_formula,
    complete_graph_edges,
    cycle_graph_edges,
    graph_coloring_formula,
    parity_chain_formula,
    pigeonhole_formula,
)
from repro.exceptions import CNFError
from repro.solvers.dpll import DPLLSolver


class TestRandomKSat:
    def test_dimensions(self):
        formula = random_ksat(10, 30, 3, seed=0)
        assert formula.num_variables == 10
        assert formula.num_clauses == 30
        assert formula.is_ksat(3)

    def test_no_tautological_clauses(self):
        formula = random_ksat(8, 60, 3, seed=1)
        assert not any(map(is_tautology, formula))

    def test_reproducible(self):
        assert random_ksat(6, 10, 3, seed=5) == random_ksat(6, 10, 3, seed=5)

    def test_different_seeds_differ(self):
        assert random_ksat(6, 10, 3, seed=5) != random_ksat(6, 10, 3, seed=6)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(CNFError):
            random_ksat(2, 5, 3)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_sizes_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            random_ksat(bad, 5, 2)


class TestPlantedKSat:
    def test_planted_model_satisfies(self):
        formula, model = planted_ksat(8, 30, 3, seed=3)
        assert formula.evaluate(model.as_dict())

    def test_planted_is_complete_assignment(self):
        formula, model = planted_ksat(5, 12, 3, seed=4)
        assert model.is_complete(5)

    def test_reproducible(self):
        f1, m1 = planted_ksat(5, 10, 3, seed=9)
        f2, m2 = planted_ksat(5, 10, 3, seed=9)
        assert f1 == f2 and m1 == m2


class TestPhaseTransitionFamily:
    def test_ratios_and_sizes(self):
        family = list(phase_transition_family(10, ratios=(2.0, 4.0), seed=0))
        assert [ratio for ratio, _ in family] == [2.0, 4.0]
        assert family[0][1].num_clauses == 20
        assert family[1][1].num_clauses == 40

    def test_default_ratios_include_transition(self):
        ratios = [r for r, _ in phase_transition_family(6, seed=0)]
        assert PHASE_TRANSITION_RATIO_3SAT in ratios

    def test_invalid_ratio_rejected(self):
        with pytest.raises(CNFError):
            list(phase_transition_family(5, ratios=(-1.0,)))


class TestPigeonhole:
    def test_unsat_when_more_pigeons(self):
        assert DPLLSolver().solve(pigeonhole_formula(3, 2)).is_unsat

    def test_sat_when_enough_holes(self):
        assert DPLLSolver().solve(pigeonhole_formula(2, 2)).is_sat

    def test_dimensions(self):
        formula = pigeonhole_formula(3, 2)
        assert formula.num_variables == 6
        # 3 "somewhere" clauses + 2 holes * C(3,2) pair clauses
        assert formula.num_clauses == 3 + 2 * 3


class TestGraphColoring:
    def test_cycle_edges(self):
        assert cycle_graph_edges(1) == []
        assert cycle_graph_edges(2) == [(0, 1)]
        assert len(cycle_graph_edges(5)) == 5

    def test_complete_edges(self):
        assert len(complete_graph_edges(4)) == 6

    def test_odd_cycle_needs_three_colors(self):
        two = graph_coloring_formula(cycle_graph_edges(5), 5, 2)
        three = graph_coloring_formula(cycle_graph_edges(5), 5, 3)
        assert DPLLSolver().solve(two).is_unsat
        assert DPLLSolver().solve(three).is_sat

    def test_complete_graph_chromatic_number(self):
        k4_three = graph_coloring_formula(complete_graph_edges(4), 4, 3)
        k4_four = graph_coloring_formula(complete_graph_edges(4), 4, 4)
        assert DPLLSolver().solve(k4_three).is_unsat
        assert DPLLSolver().solve(k4_four).is_sat

    def test_bad_edges_rejected(self):
        with pytest.raises(CNFError):
            graph_coloring_formula([(0, 5)], 3, 2)
        with pytest.raises(CNFError):
            graph_coloring_formula([(1, 1)], 3, 2)


class TestParityAndAllEqual:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parity_model_count(self, n):
        assert count_models(parity_chain_formula(n, parity=1)) == 2 ** (n - 1)
        assert count_models(parity_chain_formula(n, parity=0)) == 2 ** (n - 1)

    def test_parity_models_have_correct_parity(self):
        formula = parity_chain_formula(3, parity=1)
        from repro.cnf.evaluate import enumerate_models

        for model in enumerate_models(formula):
            assert sum(model.as_dict().values()) % 2 == 1

    def test_invalid_parity_rejected(self):
        with pytest.raises(CNFError):
            parity_chain_formula(3, parity=2)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_all_equal_has_two_models(self, n):
        expected = 2 if n >= 1 else 0
        assert count_models(all_equal_formula(n)) == expected
