"""Tests for repro.runtime.pool: determinism, seeding, error isolation."""

from __future__ import annotations

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.exceptions import RuntimeSubsystemError
from repro.runtime.jobs import SolveJob
from repro.runtime.pool import JobExecutor, derive_job_seed, execute_job


def _jobs(count: int = 5, solver: str = "portfolio") -> list[SolveJob]:
    return [
        SolveJob(
            formula=random_ksat(8, 28, seed=index),
            label=f"instance-{index}",
            solver=solver,
            samples=20_000,
        )
        for index in range(count)
    ]


def _run(jobs, workers: int = 1, master_seed: int = 0, **kwargs):
    """``JobExecutor(...).run(jobs)`` on a fresh executor, shut down after."""
    executor = JobExecutor(workers=workers, master_seed=master_seed)
    try:
        return executor.run(jobs, **kwargs)
    finally:
        executor.shutdown()


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_job_seed(1, "a", "f") == derive_job_seed(1, "a", "f")

    def test_sensitive_to_every_component(self):
        base = derive_job_seed(1, "a", "f")
        assert base != derive_job_seed(2, "a", "f")
        assert base != derive_job_seed(1, "b", "f")
        assert base != derive_job_seed(1, "a", "g")

    def test_non_negative_63_bit(self):
        seed = derive_job_seed(123, "job", "fp")
        assert 0 <= seed < 2**63


class TestDeterminism:
    def test_same_master_seed_same_outcomes(self):
        jobs = _jobs()
        first = _run(jobs, workers=1, master_seed=7)
        second = _run(jobs, workers=1, master_seed=7)
        assert [o.status for o in first] == [o.status for o in second]
        assert [o.assignment for o in first] == [o.assignment for o in second]
        assert [o.winner for o in first] == [o.winner for o in second]

    def test_worker_count_does_not_change_outcomes(self):
        jobs = _jobs(4)
        serial = _run(jobs, workers=1, master_seed=3)
        parallel = _run(jobs, workers=2, master_seed=3)
        assert [o.status for o in serial] == [o.status for o in parallel]
        assert [o.assignment for o in serial] == [o.assignment for o in parallel]

    def test_outcomes_preserve_job_order(self):
        jobs = _jobs(6)
        outcomes = _run(jobs, workers=3, master_seed=0)
        assert [o.label for o in outcomes] == [job.label for job in jobs]


class TestExecution:
    def test_classical_solver_job(self):
        job = SolveJob(
            formula=CNFFormula.from_ints([[1, 2], [-1, -2]]), solver="dpll"
        )
        outcome = execute_job(job)
        assert outcome.status == "SAT" and outcome.verified
        assert outcome.winner == "dpll"
        model = outcome.assignment_dict()
        assert job.formula.evaluate(model)

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_assignment_tuple_is_the_signed_model_in_variable_order(
        self, preprocess
    ):
        # One model: x1, not x2, x3, not x4. The outcome carries it as
        # DIMACS ints sorted by variable, exactly as the model's true
        # literals (Assignment.to_literals) encode.
        formula = CNFFormula.from_ints([[1], [-2], [-1, 3], [-3, -4], [2, 4, 1]])
        job = SolveJob(formula=formula, solver="cdcl", preprocess=preprocess)
        outcome = execute_job(job)
        assert outcome.status == "SAT" and outcome.verified
        assert outcome.assignment == (1, -2, 3, -4)
        model = Assignment(outcome.assignment_dict())
        assert outcome.assignment == tuple(model.to_literals())

    def test_nbl_symbolic_unsat_is_verified(self):
        job = SolveJob(
            formula=CNFFormula.from_ints([[1], [-1]]), solver="nbl-symbolic"
        )
        outcome = execute_job(job)
        assert outcome.status == "UNSAT" and outcome.verified

    def test_sampled_job_with_underflowing_signal_is_an_error(self):
        """The paper's carrier cannot represent (1/12)^400: ERROR, never UNSAT."""
        formula = CNFFormula.from_ints([[i, i % 20 + 1] for i in range(1, 21)], 20)
        outcome = execute_job(SolveJob(formula=formula, solver="nbl-sampled", samples=1_000))
        assert outcome.status == "ERROR"
        assert "EngineError" in outcome.error and "underflows" in outcome.error

    def test_symbolic_job_beyond_variable_limit_fails_fast(self):
        job = SolveJob(formula=random_ksat(30, 60, seed=0), solver="nbl-symbolic")
        outcome = execute_job(job)
        assert outcome.status == "ERROR"
        assert "30 variables" in outcome.error

    def test_portfolio_timeout_is_reported(self):
        job = SolveJob(
            formula=random_ksat(18, 80, seed=0),
            solver="portfolio",
            timeout=1e-6,
        )
        outcome = execute_job(job)
        assert outcome.status == "UNKNOWN"
        assert outcome.timed_out

    def test_unknown_solver_becomes_error_outcome(self):
        job = SolveJob(
            formula=CNFFormula.from_ints([[1]]), solver="no-such-solver"
        )
        outcome = execute_job(job)
        assert outcome.status == "ERROR"
        assert "no-such-solver" in outcome.error

    def test_error_job_does_not_poison_the_batch(self):
        jobs = [
            SolveJob(formula=CNFFormula.from_ints([[1]]), solver="dpll"),
            SolveJob(formula=CNFFormula.from_ints([[1]]), solver="bogus"),
            SolveJob(formula=CNFFormula.from_ints([[-1]]), solver="dpll"),
        ]
        outcomes = _run(jobs)
        assert [o.status for o in outcomes] == ["SAT", "ERROR", "SAT"]

    def test_non_library_exception_becomes_error_outcome(self, monkeypatch):
        from repro.runtime import pool as pool_module

        def explode(name, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(pool_module, "make_spec_solver", explode)
        outcome = execute_job(
            SolveJob(formula=CNFFormula.from_ints([[1]]), solver="dpll")
        )
        assert outcome.status == "ERROR"
        assert "RecursionError" in outcome.error

    def test_explicit_job_seed_overrides_derivation(self):
        formula = random_ksat(6, 20, seed=0)
        a = execute_job(SolveJob(formula=formula, solver="walksat", seed=5), 1)
        b = execute_job(SolveJob(formula=formula, solver="walksat", seed=5), 2)
        assert a.status == b.status and a.assignment == b.assignment


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(RuntimeSubsystemError):
            JobExecutor(workers=0)

    def test_empty_job_list(self):
        assert _run([]) == []

    def test_progress_callback_sees_every_outcome(self):
        seen = []
        _run(_jobs(3), on_outcome=lambda o: seen.append(o.label))
        assert seen == ["instance-0", "instance-1", "instance-2"]
