"""Instrumentation wiring: solvers, preprocessing, runtime and sessions.

These tests exercise the real library paths with telemetry enabled and
assert (a) the span trees and metric values faithfully mirror the solver
statistics, and (b) the disabled path stays allocation-free.
"""

from __future__ import annotations

from repro.cnf.generators import random_ksat
from repro.cnf.structured import pigeonhole_formula
from repro.runtime import BatchRunner, ResultCache, SolveJob, execute_job
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import DPLLSolver
from repro.solvers.walksat import WalkSATSolver
from repro.telemetry import (
    NULL_SPAN,
    disable_metrics,
    enable_metrics,
    get_metrics,
    instrument,
    start_tracing,
    stop_tracing,
)


def _span_names(tracer):
    return [
        span.name for root in tracer.finished for span in root.walk()
    ]


class TestSolverSpans:
    def test_cdcl_solve_span_mirrors_stats(self):
        tracer = start_tracing()
        formula = random_ksat(16, 68, seed=5)
        result = CDCLSolver().solve(formula)
        stop_tracing()
        (root,) = tracer.finished
        assert root.name == "solve"
        assert root.attributes["solver"] == "cdcl"
        assert root.attributes["status"] == result.status
        assert root.attributes["decisions"] == result.stats.decisions
        assert root.attributes["propagations"] == result.stats.propagations
        assert root.duration_seconds > 0.0

    def test_cdcl_propagate_spans_count_loop_iterations(self):
        tracer = start_tracing()
        CDCLSolver().solve(pigeonhole_formula(4, 3))
        stop_tracing()
        (root,) = tracer.finished
        propagates = [
            span for span in root.walk() if span.name == "propagate"
        ]
        assert propagates  # the search loop always propagates at least once
        assert any(span.attributes.get("conflict") for span in propagates)

    def test_preprocess_span_nests_inside_pool_task(self):
        tracer = start_tracing()
        formula = random_ksat(12, 40, seed=2)
        execute_job(SolveJob(formula=formula, solver="dpll", preprocess=True))
        stop_tracing()
        (root,) = tracer.finished
        assert root.name == "pool.task"
        assert "preprocess" in [child.name for child in root.children]

    def test_pool_task_says_whether_the_pipeline_ran(self):
        # A cdcl job skips the pipeline unless it carries assumptions; the
        # task span records the route, so a trace shows why no
        # preprocess span follows.
        tracer = start_tracing()
        formula = random_ksat(12, 40, seed=2)
        for assumptions in ((), (1,)):
            execute_job(
                SolveJob(
                    formula=formula,
                    solver="cdcl",
                    assumptions=assumptions,
                    preprocess=True,
                )
            )
        execute_job(SolveJob(formula=formula, solver="cdcl"))
        stop_tracing()
        searched, preprocessed, direct = tracer.finished
        assert searched.attributes["pipeline"] is False
        assert [child.name for child in searched.children] == ["solve"]
        assert preprocessed.attributes["pipeline"] is True
        assert [child.name for child in preprocessed.children][0] == "preprocess"
        assert direct.attributes["pipeline"] is False

    def test_restart_events_from_local_search(self):
        tracer = start_tracing()
        # An UNSAT-ish hard instance forces WalkSAT through all restarts.
        WalkSATSolver(max_flips=5, max_tries=3, seed=0).solve(
            random_ksat(10, 60, seed=0)
        )
        stop_tracing()
        restarts = [
            span
            for root in tracer.finished
            for span in root.walk()
            if span.name == "restart"
        ]
        assert [span.attributes["attempt"] for span in restarts] == [1, 2, 3]

    def test_session_solve_wraps_solver_span(self):
        tracer = start_tracing()
        session = DPLLSolver().make_session(
            base_formula=random_ksat(8, 20, seed=1)
        )
        session.solve([1])
        stop_tracing()
        (root,) = tracer.finished
        assert root.name == "session.solve"
        assert root.attributes["assumptions"] == 1
        assert "solve" in [child.name for child in root.children]


class TestSolverMetrics:
    def test_counters_match_solver_stats(self):
        enable_metrics()
        formula = random_ksat(16, 68, seed=5)
        result = CDCLSolver().solve(formula)
        registry = get_metrics()
        disable_metrics()
        runs = registry.get(
            "repro_solver_runs_total", solver="cdcl", status=result.status
        )
        assert runs.value == 1.0
        decisions = registry.get("repro_solver_decisions_total", solver="cdcl")
        assert decisions.value == float(result.stats.decisions)
        wall = registry.get("repro_solver_wall_seconds", solver="cdcl")
        assert wall.count == 1
        assert wall.sum > 0.0

    def test_timeout_is_counted(self):
        enable_metrics()
        CDCLSolver().solve(pigeonhole_formula(7, 6), timeout=1e-6)
        registry = get_metrics()
        disable_metrics()
        timeouts = registry.get("repro_solver_timeouts_total", solver="cdcl")
        assert timeouts is not None and timeouts.value == 1.0


class TestRuntimeInstrumentation:
    def test_cache_lookup_metrics_and_stats_property(self):
        enable_metrics()
        cache = ResultCache(max_size=4)
        cache.get("missing")
        registry = get_metrics()
        disable_metrics()
        assert registry.get("repro_cache_misses_total").value == 1.0
        stats = cache.stats
        assert stats.misses == 1 and stats.lookups == 1
        assert stats.hit_rate == 0.0

    def test_batch_run_records_outcomes_and_snapshot(self):
        enable_metrics()
        tracer = start_tracing()
        runner = BatchRunner(solver="cdcl", workers=1)
        jobs = [
            runner.make_job(random_ksat(8, 24, seed=seed), label=f"j{seed}")
            for seed in range(3)
        ]
        report = runner.run_jobs(jobs)
        stop_tracing()
        registry = get_metrics()
        disable_metrics()
        assert report.total == 3
        outcomes = [
            metric
            for metric in registry.collect()
            if metric.name == "repro_batch_outcomes_total"
        ]
        assert sum(metric.value for metric in outcomes) == 3.0
        assert registry.get("repro_cache_size").value == float(
            report.cache_stats.size
        )
        names = _span_names(tracer)
        assert "pool.task" in names
        assert "cache.lookup" in names

    def test_lifetime_cache_line_in_batch_report(self):
        runner = BatchRunner(solver="cdcl", workers=1)
        jobs = [runner.make_job(random_ksat(8, 24, seed=0))]
        report = runner.run_jobs(jobs)
        assert "lifetime" in report.to_text()


class TestDisabledFastPath:
    def test_active_is_false_by_default(self):
        assert not instrument.active()
        assert not instrument.tracing_active()

    def test_disabled_span_allocates_nothing(self):
        # Identity check: every disabled span() call returns the singleton.
        spans = {id(instrument.span("solve")) for _ in range(100)}
        assert spans == {id(NULL_SPAN)}

    def test_disabled_solve_leaves_no_telemetry(self):
        result = CDCLSolver().solve(random_ksat(10, 30, seed=7))
        assert result.status in ("SAT", "UNSAT")
        assert len(get_metrics()) == 0

    def test_emit_early_returns_when_disabled(self):
        instrument.emit("repro_cache_hits_total")
        instrument.emit("repro_pool_tasks_total", status="SAT")
        instrument.emit("repro_pool_task_seconds", 0.1)
        instrument.emit(
            "repro_batch_outcomes_total", status="SAT", from_cache="false"
        )
        assert len(get_metrics()) == 0
