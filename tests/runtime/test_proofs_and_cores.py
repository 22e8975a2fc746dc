"""Proof and assumption-core plumbing through the runtime subsystem."""

from __future__ import annotations

import os

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.structured import pigeonhole_formula
from repro.exceptions import RuntimeSubsystemError
from repro.proofs import check_proof_file
from repro.runtime.jobs import SolveJob, SolveOutcome
from repro.runtime.pool import JobExecutor, execute_job

CHAIN = CNFFormula.from_ints([[-1, 2], [-2, 3]], 3)


class TestSolveJobProofField:
    @pytest.mark.parametrize("spec", ["portfolio", "nbl-symbolic", "nbl-sampled"])
    def test_rejected_for_non_classical_specs(self, spec):
        with pytest.raises(RuntimeSubsystemError, match="classical"):
            SolveJob(formula=CHAIN, solver=spec, proof="p.drat")

    def test_accepted_for_classical_specs(self, tmp_path):
        job = SolveJob(formula=CHAIN, solver="cdcl", proof=str(tmp_path / "p.drat"))
        assert job.proof is not None


class TestOutcomeSerialisation:
    def test_core_and_proof_roundtrip(self):
        outcome = SolveOutcome(
            job_id="j",
            status="UNSAT",
            solver="cdcl",
            core=(1, -3),
            proof="/tmp/p.drat",
        )
        restored = SolveOutcome.from_dict(outcome.to_dict())
        assert restored.core == (1, -3)
        assert restored.proof == "/tmp/p.drat"
        assert outcome.copy().core == (1, -3)

    def test_old_payloads_load_with_defaults(self):
        data = SolveOutcome(job_id="j", status="SAT", solver="cdcl").to_dict()
        del data["core"], data["proof"]
        restored = SolveOutcome.from_dict(data)
        assert restored.core is None
        assert restored.proof == ""


class TestExecuteJobProofs:
    def test_direct_proof_verifies(self, tmp_path):
        formula = pigeonhole_formula(4, 3)
        path = str(tmp_path / "direct.drat")
        outcome = execute_job(SolveJob(formula=formula, solver="cdcl", proof=path))
        assert outcome.status == "UNSAT"
        assert outcome.proof == path
        assert check_proof_file(formula, path)

    def test_preprocessed_proof_verifies(self, tmp_path):
        formula = pigeonhole_formula(4, 3)
        path = str(tmp_path / "pre.drat")
        outcome = execute_job(
            SolveJob(formula=formula, solver="cdcl", preprocess=True, proof=path)
        )
        assert outcome.status == "UNSAT"
        assert check_proof_file(formula, path)

    def test_preprocessed_proof_after_coordinator_cache_key(self, tmp_path):
        """Regression: computing the cache key first (as the batch
        coordinator does) caches a proof-less reduction; the executing
        side must still record the pipeline's lines."""
        formula = pigeonhole_formula(4, 3)
        path = str(tmp_path / "warm.drat")
        job = SolveJob(formula=formula, solver="cdcl", preprocess=True, proof=path)
        assert job.cache_key  # forces the proof-less reduction
        outcome = execute_job(job)
        assert outcome.status == "UNSAT"
        result = check_proof_file(formula, path)
        assert result, result.reason


class TestExecuteJobCores:
    def test_direct_assumption_core(self):
        outcome = execute_job(
            SolveJob(formula=CHAIN, solver="cdcl", assumptions=(1, -3))
        )
        assert outcome.status == "UNSAT"
        assert outcome.core == (1, -3)

    def test_preprocessed_core_in_original_numbering(self):
        # Variables 1-3 are eliminated by preprocessing; the frozen
        # assumption variables 4 and 6 must come back un-renumbered.
        formula = CNFFormula.from_ints([[-4, 5], [-5, 6], [1, 2], [2, 3]], 6)
        outcome = execute_job(
            SolveJob(
                formula=formula, solver="cdcl", preprocess=True, assumptions=(4, -6)
            )
        )
        assert outcome.status == "UNSAT"
        assert outcome.core is not None
        assert set(outcome.core) <= {4, -6}

    def test_contradictory_assumptions_core(self):
        outcome = execute_job(
            SolveJob(
                formula=CHAIN, solver="cdcl", preprocess=True, assumptions=(2, -2)
            )
        )
        assert outcome.status == "UNSAT"
        assert set(outcome.core) == {2, -2}

    def test_core_of_a_formula_unsat_whatever_the_assumptions(self):
        # PHP(4,3) is UNSAT without any assumption, but the direct path
        # searches under the assumption and may refute the formula through
        # it. What holds is the documented contract: the core is a subset
        # of the assumptions that is UNSAT together with the formula (it
        # is not promised to be empty).
        from repro.incremental import make_session
        from repro.solvers.brute_force import BruteForceSolver

        formula = pigeonhole_formula(4, 3)
        outcome = execute_job(
            SolveJob(formula=formula, solver="cdcl", assumptions=(1,))
        )
        assert outcome.status == "UNSAT"
        session = make_session("cdcl", base_formula=formula)
        assert session.solve((1,)).is_unsat
        for core in (outcome.core, session.unsat_core()):
            assert core is not None and set(core) <= {1}
            assert BruteForceSolver().solve(formula.with_assumptions(core)).is_unsat

    def test_sat_outcome_has_no_core(self):
        outcome = execute_job(
            SolveJob(formula=CHAIN, solver="cdcl", assumptions=(1, 3))
        )
        assert outcome.status == "SAT"
        assert outcome.core is None


class TestBatchProofDir:
    def test_proof_per_job_and_verifying(self, tmp_path):
        from repro.runtime.batch import BatchRunner

        proof_dir = tmp_path / "proofs"
        runner = BatchRunner(solver="cdcl", proof_dir=proof_dir, preprocess=True)
        formula = pigeonhole_formula(4, 3)
        report = runner.run_jobs([runner.make_job(formula, label="php43")])
        outcome = report.outcomes[0]
        assert outcome.status == "UNSAT"
        assert os.path.dirname(outcome.proof) == str(proof_dir)
        assert check_proof_file(formula, outcome.proof)

    def test_cache_hit_keeps_producing_runs_proof(self, tmp_path):
        from repro.runtime.batch import BatchRunner

        runner = BatchRunner(solver="cdcl", proof_dir=tmp_path / "proofs")
        formula = pigeonhole_formula(4, 3)
        first = runner.run_jobs([runner.make_job(formula, label="a")]).outcomes[0]
        second = runner.run_jobs([runner.make_job(formula, label="b")]).outcomes[0]
        assert second.from_cache is True
        assert second.proof == first.proof

    def test_rejected_for_non_classical_specs(self, tmp_path):
        from repro.runtime.batch import BatchRunner

        with pytest.raises(RuntimeSubsystemError, match="classical"):
            BatchRunner(solver="portfolio", proof_dir=tmp_path / "proofs")


def test_parallel_workers_write_proofs(tmp_path):
    """Proof paths are picklable; worker processes write the real files."""
    formulas = [pigeonhole_formula(3, 2), pigeonhole_formula(4, 3)]
    jobs = [
        SolveJob(
            formula=formula,
            job_id=f"par-{index}",
            solver="cdcl",
            proof=str(tmp_path / f"par-{index}.drat"),
        )
        for index, formula in enumerate(formulas)
    ]
    executor = JobExecutor(workers=2)
    try:
        outcomes = executor.run(jobs)
    finally:
        executor.shutdown()
    for job, formula, outcome in zip(jobs, formulas, outcomes):
        assert outcome.status == "UNSAT"
        result = check_proof_file(formula, job.proof)
        assert result, result.reason
