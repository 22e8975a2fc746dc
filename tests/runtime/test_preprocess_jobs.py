"""Preprocessing through the batch runtime: jobs, cache keys, reconstruction."""

from __future__ import annotations

import time

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import planted_ksat, random_ksat
from repro.cnf.paper_instances import section4_unsat_instance
from repro.cnf.structured import all_equal_formula, pigeonhole_formula
from repro.preprocess.pipeline import Preprocessor
from repro.runtime import (
    BatchRunner,
    ResultCache,
    ShardedResultCache,
    SolveJob,
    execute_job,
)
from repro.solvers.brute_force import BruteForceSolver
from repro.telemetry import start_tracing, stop_tracing


@pytest.fixture
def formula():
    return random_ksat(8, 22, 3, seed=17)


class TestSolveJobPreprocess:
    def test_preprocessed_freezes_assumption_variables(self):
        # Variable elimination renumbers the survivors; the assumption
        # variable must stay frozen through it, so the preprocessed job
        # answers (and blames the same core) exactly like the direct one.
        php = pigeonhole_formula(6, 5)
        direct = execute_job(SolveJob(formula=php, solver="cdcl", assumptions=(30,)))
        pre = execute_job(
            SolveJob(formula=php, solver="cdcl", assumptions=(30,), preprocess=True)
        )
        assert direct.status == "UNSAT"
        assert (pre.status, pre.core) == (direct.status, direct.core)

    def test_reordered_formula_same_key(self):
        # Clause order and literal order do not matter: the key is the
        # canonical fingerprint whether or not the job preprocesses.
        chain = all_equal_formula(8)
        shuffled = CNFFormula(list(reversed(chain.clauses)), chain.num_variables)
        a = SolveJob(formula=chain, solver="cdcl", preprocess=True)
        b = SolveJob(formula=shuffled, solver="cdcl", preprocess=True)
        assert a.cache_key == b.cache_key == chain.fingerprint()


class TestExecuteJobPreprocess:
    @pytest.mark.parametrize("solver", ["cdcl", "dpll", "portfolio", "nbl-symbolic"])
    def test_agrees_with_truth(self, formula, solver):
        truth = BruteForceSolver().solve(formula)
        outcome = execute_job(
            SolveJob(formula=formula, solver=solver, preprocess=True), 0
        )
        assert outcome.status == truth.status
        assert outcome.fingerprint != ""
        if outcome.status == "SAT":
            assert outcome.verified
            assert formula.evaluate(outcome.assignment_dict())

    def test_unsat_decided_by_preprocessing(self):
        outcome = execute_job(
            SolveJob(
                formula=section4_unsat_instance(), solver="dpll", preprocess=True
            ),
            0,
        )
        assert outcome.status == "UNSAT"
        assert outcome.winner == "preprocess"
        assert outcome.verified

    def test_assumptions_survive_preprocessing(self, formula):
        assumptions = (2, -5)
        truth = BruteForceSolver().solve(formula.with_assumptions(assumptions))
        outcome = execute_job(
            SolveJob(
                formula=formula,
                solver="cdcl",
                assumptions=assumptions,
                preprocess=True,
            ),
            0,
        )
        assert outcome.status == truth.status
        if outcome.status == "SAT":
            model = outcome.assignment_dict()
            assert all(model[abs(a)] == (a > 0) for a in assumptions)
            assert formula.evaluate(model)

    def test_contradictory_assumptions_are_unsat(self, formula):
        outcome = execute_job(
            SolveJob(
                formula=formula,
                solver="cdcl",
                assumptions=(4, -4),
                preprocess=True,
            ),
            0,
        )
        assert outcome.status == "UNSAT"
        assert outcome.winner == "preprocess"

    def test_preprocessing_lifts_symbolic_variable_limit(self):
        # 30 variables is beyond the symbolic engine's 20-variable refusal
        # threshold, but the chain collapses to nothing during
        # preprocessing, so the job succeeds instead of erroring.
        chain = all_equal_formula(30)
        refused = execute_job(SolveJob(formula=chain, solver="nbl-symbolic"), 0)
        assert refused.status == "ERROR"
        outcome = execute_job(
            SolveJob(formula=chain, solver="nbl-symbolic", preprocess=True), 0
        )
        assert outcome.status == "SAT"
        assert outcome.verified

    def test_residual_solve_fingerprints_only_the_job_formula(self, monkeypatch):
        # The residual's outcome carries the parent job's identity, so the
        # reduced formula is never hashed: one computation per job.
        fingerprinted = []
        original = CNFFormula.fingerprint

        def counting(self):
            fingerprinted.append(self)
            return original(self)

        monkeypatch.setattr(CNFFormula, "fingerprint", counting)
        job = SolveJob(
            formula=random_ksat(60, 180, 3, seed=0),
            job_id="residual",
            solver="dpll",
            preprocess=True,
        )
        outcome = execute_job(job, 0)
        assert (outcome.status, outcome.winner) == ("SAT", "dpll")
        assert outcome.fingerprint == job.formula.fingerprint()
        assert len({id(formula) for formula in fingerprinted}) == 1

    def test_deadline_covers_pipeline_and_residual(self, monkeypatch):
        # The residual solve gets what is left of the job's timeout, not a
        # fresh one: a pipeline that overruns the deadline ends the job.
        preprocess = Preprocessor.preprocess

        def slow(self, *args, **kwargs):
            result = preprocess(self, *args, **kwargs)
            time.sleep(0.3)
            return result

        monkeypatch.setattr(Preprocessor, "preprocess", slow)
        outcome = execute_job(
            SolveJob(
                formula=pigeonhole_formula(6, 5),
                solver="cdcl",
                assumptions=(30,),
                preprocess=True,
                timeout=0.25,
            )
        )
        assert (outcome.status, outcome.timed_out) == ("UNKNOWN", True)


class TestCdclSkipsPipeline:
    """A ``cdcl`` job without assumptions searches its formula as given."""

    @pytest.mark.parametrize(
        "formula",
        [
            random_ksat(60, 180, 3, seed=0),
            random_ksat(20, 120, 3, seed=1),
            section4_unsat_instance(),  # the pipeline alone refutes it
            all_equal_formula(30),  # the pipeline alone satisfies it
        ],
    )
    def test_answers_like_a_direct_job(self, formula):
        direct = execute_job(SolveJob(formula=formula, solver="cdcl"))
        tracer = start_tracing()
        try:
            outcome = execute_job(
                SolveJob(formula=formula, solver="cdcl", preprocess=True)
            )
        finally:
            stop_tracing()
        (root,) = tracer.finished
        assert direct.status in ("SAT", "UNSAT")
        assert (outcome.status, outcome.assignment, outcome.core) == (
            direct.status,
            direct.assignment,
            direct.core,
        )
        assert (outcome.winner, outcome.verified) == ("cdcl", True)
        if outcome.status == "SAT":
            assert formula.evaluate(outcome.assignment_dict())
        assert root.attributes["pipeline"] is False
        assert "preprocess" not in [span.name for span in root.walk()]


class TestBatchRunnerPreprocess:
    def test_reordered_duplicate_served_from_cache(self):
        runner = BatchRunner(solver="cdcl", preprocess=True)
        chain = all_equal_formula(9)
        shuffled = CNFFormula(list(reversed(chain.clauses)), chain.num_variables)
        report = runner.run_jobs(
            [runner.make_job(chain, label="a"), runner.make_job(shuffled, label="b")]
        )
        assert report.status_counts == {"SAT": 2}
        assert report.cache_hits == 1

    def test_cached_model_revalidated_against_new_formula(self):
        # Both formulas preprocess to the trivial SAT core, but a model of
        # the first does not satisfy the second. Each job keys on its own
        # formula, so neither is answered with the other's model.
        force_true = CNFFormula.from_ints([[1], [1, 2]])  # needs x1=True
        force_false = CNFFormula.from_ints([[-1], [-1, 2]])  # needs x1=False
        runner = BatchRunner(solver="cdcl", preprocess=True)
        a = runner.make_job(force_true, label="true")
        b = runner.make_job(force_false, label="false")
        assert a.cache_key != b.cache_key
        report = runner.run_jobs([a, b])
        assert report.cache_hits == 0
        models = {o.label: o.assignment_dict() for o in report.outcomes}
        assert force_true.evaluate(models["true"])
        assert force_false.evaluate(models["false"])

    def test_shared_core_never_serves_a_foreign_model(self, shared_core_pair):
        # ``shifted`` preprocesses to exactly ``core``; a plain run over
        # the same cache must solve ``core`` rather than serve the model
        # of ``shifted``, which mentions a variable ``core`` lacks.
        core, shifted = shared_core_pair
        cache = ResultCache()
        pre = BatchRunner(solver="cdcl", cache=cache, preprocess=True)
        plain = BatchRunner(solver="cdcl", cache=cache)
        first = pre.run_jobs([pre.make_job(shifted)]).outcomes[0]
        second = plain.run_jobs([plain.make_job(core)]).outcomes[0]
        for formula, outcome in ((shifted, first), (core, second)):
            assert outcome.status == "SAT" and outcome.verified
            assert all(abs(lit) <= formula.num_variables for lit in outcome.assignment)
            assert formula.evaluate(outcome.assignment_dict())
        assert not second.from_cache

    def test_preprocess_roundtrips_through_worker_pool(self):
        runner = BatchRunner(solver="cdcl", workers=2, preprocess=True)
        formulas = [planted_ksat(7, 18, seed=s)[0] for s in range(3)]
        report = runner.run_jobs(
            [runner.make_job(f, label=str(i)) for i, f in enumerate(formulas)]
        )
        assert report.status_counts.get("SAT", 0) == 3
        for outcome in report.outcomes:
            if not outcome.from_cache:
                assert outcome.verified

    def test_preprocessed_entries_survive_persistence(self, tmp_path):
        directory = tmp_path / "cache"
        formula = planted_ksat(7, 20, seed=5)[0]
        with ShardedResultCache(directory) as cache:
            runner = BatchRunner(solver="cdcl", cache=cache, preprocess=True)
            runner.run_jobs([runner.make_job(formula, label="x")])
            saved = len(cache)
        warm = ShardedResultCache(directory)
        assert len(warm) == saved
        assert warm.get(formula.fingerprint()) is not None

    def test_outcomes_keyed_on_own_fingerprint(self):
        # A preprocessed outcome lives under the job's own key, so a warm
        # re-run of the same instance hits without running the pipeline.
        cache = ResultCache()
        runner = BatchRunner(solver="cdcl", cache=cache, preprocess=True)
        formula = planted_ksat(7, 20, seed=3)[0]
        runner.run_jobs([runner.make_job(formula, label="x")])
        assert len(cache) == 1
        assert cache.get(formula.fingerprint()) is not None
        report = runner.run_jobs([runner.make_job(formula, label="x")])
        assert report.cache_hits == 1

    def test_cache_persistence_with_reduced_keys(self, tmp_path):
        directory = tmp_path / "cache"
        formula = planted_ksat(7, 20, seed=9)[0]
        with ShardedResultCache(directory) as cache:
            runner = BatchRunner(solver="cdcl", cache=cache, preprocess=True)
            runner.run_jobs([runner.make_job(formula, label="x")])
        warm_cache = ShardedResultCache(directory)
        warm = BatchRunner(solver="cdcl", cache=warm_cache, preprocess=True)
        report = warm.run_jobs([warm.make_job(formula, label="x")])
        assert report.cache_hits == 1
