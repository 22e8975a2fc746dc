"""Tests for the default ``"portfolio"`` spec: one solver per instance.

A default job runs the exact NBL engine on a formula of at most 20
variables and CDCL on anything larger, exactly as the job naming that
solver would.
"""

from __future__ import annotations

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import phase_transition_family, random_ksat
from repro.runtime import SolveJob, execute_job
from repro.solvers.brute_force import BruteForceSolver


class TestAgreementWithBruteForce:
    """Default-spec answers must match exhaustive enumeration (≤ 12 variables)."""

    def test_mixed_random_instances(self):
        brute = BruteForceSolver()
        checked = 0
        for num_variables in (6, 10, 12):
            for ratio, formula in phase_transition_family(
                num_variables, ratios=(3.0, 4.26, 5.5), seed=num_variables
            ):
                truth = brute.solve(formula).status
                outcome = execute_job(SolveJob(formula=formula, seed=0))
                assert outcome.status == truth, (
                    f"portfolio={outcome.status} truth={truth} "
                    f"(n={num_variables}, ratio={ratio})"
                )
                assert outcome.verified
                if outcome.status == "SAT":
                    assert formula.evaluate(outcome.assignment_dict())
                checked += 1
        assert checked == 9

    def test_unsat_instance(self):
        formula = CNFFormula.from_ints(
            [[1, 2], [1, -2], [-1, 2], [-1, -2]]
        )
        outcome = execute_job(SolveJob(formula=formula, seed=0))
        assert outcome.status == "UNSAT" and outcome.verified
        assert outcome.winner == "nbl-symbolic"


class TestSelection:
    @pytest.mark.parametrize(
        "num_variables, selected", [(12, "nbl-symbolic"), (30, "cdcl")]
    )
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("preprocess", [False, True])
    def test_default_job_runs_the_selected_solver(
        self, num_variables, selected, seed, preprocess
    ):
        formula = random_ksat(num_variables, round(4.26 * num_variables), seed=seed)
        default = execute_job(SolveJob(formula=formula, preprocess=preprocess))
        named = execute_job(
            SolveJob(formula=formula, solver=selected, preprocess=preprocess)
        )
        cdcl = execute_job(SolveJob(formula=formula, solver="cdcl"))
        assert default.solver == "portfolio"
        assert default.status == cdcl.status
        if not preprocess:
            assert default.winner == selected
        comparable = dict(solver="", elapsed_seconds=0.0)
        assert default.copy(**comparable) == named.copy(**comparable)

    @pytest.mark.parametrize("clauses, status", [([], "SAT"), ([[]], "UNSAT")])
    @pytest.mark.parametrize("preprocess", [False, True])
    def test_zero_variable_formula_is_answered(self, clauses, status, preprocess):
        formula = CNFFormula.from_ints(clauses)
        outcome = execute_job(SolveJob(formula=formula, preprocess=preprocess))
        assert outcome.status == status, outcome.error
        if not preprocess:
            assert outcome.winner == "cdcl"


class TestRaceMechanics:
    """Sound verdicts, bounded cost and determinism of the dispatch."""

    def test_incomplete_solver_cannot_settle_unsat(self):
        formula = CNFFormula.from_ints([[1], [-1]])
        outcome = execute_job(SolveJob(formula=formula, solver="walksat", seed=0))
        assert outcome.status == "UNKNOWN"
        assert not outcome.verified

    def test_exponential_contender_is_skipped_on_large_instances(self):
        formula = random_ksat(30, 60, seed=0)
        outcome = execute_job(SolveJob(formula=formula, samples=10_000, seed=0))
        assert outcome.status == "SAT" and outcome.verified
        assert outcome.winner == "cdcl"
        assert outcome.samples_used == 0

    def test_hybrid_is_a_valid_contender(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
        outcome = execute_job(SolveJob(formula=formula, solver="hybrid", seed=0))
        assert outcome.status == "SAT" and outcome.winner == "hybrid"

    def test_determinism_for_fixed_seed(self):
        formula = random_ksat(10, 42, seed=4)
        first = execute_job(SolveJob(formula=formula, samples=20_000, seed=9))
        second = execute_job(SolveJob(formula=formula, samples=20_000, seed=9))
        assert first.copy(elapsed_seconds=0.0) == second.copy(elapsed_seconds=0.0)
