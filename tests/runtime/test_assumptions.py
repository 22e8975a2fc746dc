"""Assumption-carrying jobs through the pool, batch and default-spec layers."""

from __future__ import annotations

import pytest

from repro.cnf.formula import CNFFormula
from repro.runtime import BatchRunner, SolveJob, execute_job
from repro.runtime.jobs import SolveOutcome
from repro.solvers.cdcl import CDCLSolver


def simple_formula() -> CNFFormula:
    return CNFFormula.from_ints([[1, 2], [-1, -2]])


class TestExecuteJobWithAssumptions:
    @pytest.mark.parametrize("solver", ["cdcl", "dpll", "brute-force"])
    def test_classical_unsat_under_assumptions(self, solver):
        outcome = execute_job(
            SolveJob(formula=simple_formula(), solver=solver, assumptions=(1, 2))
        )
        assert outcome.status == "UNSAT"
        assert outcome.verified
        assert outcome.assumptions == (1, 2)

    def test_classical_sat_model_respects_assumptions(self):
        outcome = execute_job(
            SolveJob(formula=simple_formula(), solver="cdcl", assumptions=(-1,))
        )
        assert outcome.status == "SAT"
        model = outcome.assignment_dict()
        assert model[1] is False and model[2] is True

    def test_nbl_symbolic_with_assumptions(self):
        outcome = execute_job(
            SolveJob(
                formula=simple_formula(),
                solver="nbl-symbolic",
                assumptions=(1, 2),
            )
        )
        assert outcome.status == "UNSAT"
        assert outcome.verified

    def test_portfolio_with_assumptions(self):
        outcome = execute_job(
            SolveJob(
                formula=simple_formula(),
                solver="portfolio",
                assumptions=(2,),
                seed=1,
            )
        )
        assert outcome.status == "SAT"
        model = outcome.assignment_dict()
        assert model[2] is True and model[1] is False

    def test_assumptions_are_canonicalised(self):
        job = SolveJob(
            formula=simple_formula(), solver="cdcl", assumptions=(2, 1, 2)
        )
        assert job.assumptions == (1, 2)


class TestPortfolioAssumptions:
    def test_solve_accepts_assumptions(self):
        outcome = execute_job(
            SolveJob(formula=simple_formula(), seed=0, assumptions=(1, 2))
        )
        assert outcome.status == "UNSAT" and outcome.verified

    def test_assumption_free_race_unchanged(self):
        outcome = execute_job(SolveJob(formula=simple_formula(), seed=0))
        assert outcome.status == "SAT"

    @pytest.mark.parametrize("num_variables", [2, 40])
    @pytest.mark.parametrize("preprocess", [False, True])
    def test_default_unsat_reports_a_core(self, num_variables, preprocess):
        # The formula forces x2, so ~x2 is refuted; x3 is free either way.
        formula = CNFFormula.from_ints([[1, 2], [-1, 2]], num_variables)
        assumptions = (-2,) if num_variables < 3 else (-2, 3)
        outcome = execute_job(
            SolveJob(formula=formula, assumptions=assumptions, preprocess=preprocess)
        )
        assert outcome.status == "UNSAT" and outcome.verified
        assert outcome.core is not None
        assert set(outcome.core) <= set(assumptions)
        refuted = formula.with_assumptions(outcome.core)
        assert CDCLSolver().solve(refuted).status == "UNSAT"


class TestBatchCacheWithAssumptions:
    def test_cache_keys_separate_assumption_sets(self):
        runner = BatchRunner(solver="cdcl")
        formula = simple_formula()
        jobs = [
            runner.make_job(formula, label="free"),
            runner.make_job(formula, label="assumed", assumptions=(1, 2)),
            runner.make_job(formula, label="free-again"),
            runner.make_job(formula, label="assumed-again", assumptions=(2, 1)),
        ]
        report = runner.run_jobs(jobs)
        by_label = {o.label: o for o in report.outcomes}
        assert by_label["free"].status == "SAT"
        assert by_label["assumed"].status == "UNSAT"
        # Repeats are cache/de-dup hits of the matching assumption set only.
        assert by_label["free-again"].status == "SAT"
        assert by_label["free-again"].from_cache
        assert by_label["assumed-again"].status == "UNSAT"
        assert by_label["assumed-again"].from_cache

    def test_outcome_roundtrips_assumptions_through_json(self):
        outcome = SolveOutcome(
            job_id="j",
            status="UNSAT",
            solver="cdcl",
            fingerprint="ab" * 32,
            assumptions=(1, -3),
            verified=True,
        )
        restored = SolveOutcome.from_dict(outcome.to_dict())
        assert restored.assumptions == (1, -3)
        assert restored.cache_key == outcome.cache_key

    def test_persisted_cache_preserves_assumption_keys(self, tmp_path):
        from repro.runtime import ShardedResultCache

        directory = tmp_path / "cache"
        formula = simple_formula()
        with ShardedResultCache(directory) as cache:
            runner = BatchRunner(solver="cdcl", cache=cache)
            solved = runner.run_jobs(
                [runner.make_job(formula, label="a", assumptions=(1, 2))]
            ).outcomes[0]
        reloaded = ShardedResultCache(directory)
        key = runner.make_job(formula, assumptions=(1, 2)).cache_key
        hit = reloaded.get(key)
        assert hit is not None and hit.status == "UNSAT"
        assert hit.assumptions == (1, 2) and hit.core == solved.core
        assert reloaded.get(formula.fingerprint()) is None
