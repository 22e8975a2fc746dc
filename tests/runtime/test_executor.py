"""Tests for repro.runtime.pool.JobExecutor (the reusable executor core)."""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.cnf.formula import CNFFormula
from repro.exceptions import RuntimeSubsystemError
from repro.runtime.jobs import SolveJob
from repro.runtime.pool import JobExecutor


def _sat_job(**overrides) -> SolveJob:
    fields = dict(
        formula=CNFFormula.from_ints([[1, 2], [-1]]),
        solver="cdcl",
    )
    fields.update(overrides)
    return SolveJob(**fields)


def _unsat_job() -> SolveJob:
    return SolveJob(formula=CNFFormula.from_ints([[1], [-1]]), solver="cdcl")


class TestConstruction:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(RuntimeSubsystemError):
            JobExecutor(workers=0)

    def test_rejects_inline_multiworker(self):
        with pytest.raises(RuntimeSubsystemError):
            JobExecutor(workers=2, inline=True)

    def test_single_worker_defaults_inline(self):
        executor = JobExecutor(workers=1)
        assert executor.inline
        executor.shutdown()


class TestInline:
    def test_submit_resolves_synchronously(self):
        executor = JobExecutor(workers=1)
        future = executor.submit(_sat_job())
        assert future.done()  # inline: already solved
        outcome = executor.collect(future, _sat_job())
        assert outcome.status == "SAT" and outcome.verified
        executor.shutdown()


class TestThreaded:
    def test_submit_returns_pending_future(self):
        executor = JobExecutor(workers=1, inline=False)
        try:
            job = _sat_job()
            future = executor.submit(job)
            outcome = executor.collect(future, job)
            assert outcome.status == "SAT"
            unsat = _unsat_job()
            assert executor.collect(executor.submit(unsat), unsat).status == "UNSAT"
        finally:
            executor.shutdown()

    def test_collect_translates_worker_exception(self):
        executor = JobExecutor(workers=1, inline=False)
        try:
            job = _sat_job()
            poisoned: concurrent.futures.Future = concurrent.futures.Future()
            poisoned.set_exception(RuntimeError("boom"))
            outcome = executor.collect(poisoned, job)
            assert outcome.status == "ERROR"
            assert "boom" in outcome.error
        finally:
            executor.shutdown()

    def test_collect_grace_window_times_out(self):
        executor = JobExecutor(workers=1, inline=False)
        try:
            job = _sat_job(timeout=0.01)
            stuck: concurrent.futures.Future = concurrent.futures.Future()
            outcome = executor.collect(stuck, job, grace=0.05)
            assert outcome.status == "UNKNOWN" and outcome.timed_out
        finally:
            executor.shutdown()

    def test_collect_cancelled_future(self):
        executor = JobExecutor(workers=1, inline=False)
        try:
            job = _sat_job()
            cancelled: concurrent.futures.Future = concurrent.futures.Future()
            cancelled.cancel()
            cancelled.set_running_or_notify_cancel()
            outcome = executor.collect(cancelled, job)
            assert outcome.status == "ERROR"
        finally:
            executor.shutdown()


class TestProcessPool:
    def test_multiworker_solves(self):
        executor = JobExecutor(workers=2, master_seed=7)
        try:
            jobs = [_sat_job(), _unsat_job()]
            futures = [executor.submit(job) for job in jobs]
            outcomes = [
                executor.collect(future, job)
                for future, job in zip(futures, jobs)
            ]
            assert [outcome.status for outcome in outcomes] == ["SAT", "UNSAT"]
        finally:
            executor.shutdown()

    def test_run_collects_in_job_order(self):
        executor = JobExecutor(workers=2)
        try:
            jobs = [_unsat_job(), _sat_job(), _unsat_job()]
            seen = []
            outcomes = executor.run(jobs, on_outcome=seen.append)
            assert [o.status for o in outcomes] == ["UNSAT", "SAT", "UNSAT"]
            assert seen == outcomes
        finally:
            executor.shutdown()

    def test_pool_that_lost_its_workers_is_replaced(self, kill_new_children):
        executor = JobExecutor(workers=2)
        try:
            job = _sat_job()
            assert executor.collect(executor.submit(job), job).status == "SAT"
            assert kill_new_children() == 2
            jobs = [_sat_job(), _unsat_job(), _sat_job()]
            outcomes = executor.run(jobs)
            assert [o.status for o in outcomes] == ["SAT", "UNSAT", "SAT"]
        finally:
            executor.shutdown()


class TestBatchEquivalence:
    def test_pool_run_unchanged_by_refactor(self):
        """JobExecutor.run keeps batch semantics."""
        jobs = [_sat_job(), _unsat_job()]
        seen = []
        outcomes = JobExecutor(workers=1, master_seed=0).run(
            jobs, on_outcome=seen.append
        )
        assert [outcome.status for outcome in outcomes] == ["SAT", "UNSAT"]
        assert [outcome.job_id for outcome in seen] == [
            outcome.job_id for outcome in outcomes
        ]
