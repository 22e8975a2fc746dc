"""The library's own instrumentation sites funnel through this module.

Every hook here follows the same contract:

* :func:`active` is the single cheap guard — one function call reading two
  module-level flags. Hot paths call it (or :func:`tracing_active` /
  :func:`span`, whose disabled forms allocate nothing) before building any
  attribute dictionary, so a process that never enables telemetry pays a
  bool check per site and nothing else.
* :data:`METRICS` declares every metric family the library emits — name,
  kind, label names and help text — exactly once; ``docs/observability.md``
  is checked against it by the test suite.
* :func:`emit` is the one way a call site records a metric: it returns at
  once when metrics collection is off, and otherwise validates the name and
  label set against :data:`METRICS` before updating the registry.
  :func:`record_solve` is the only domain helper, because three solver
  paths share its translation of :class:`~repro.solvers.base.SolverStats`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from repro.exceptions import ReproError
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.telemetry.trace import NullTracer, Span, Tracer, _NullSpan

_WORK = "Accumulated solver work counters."
_SHARD_ENTRIES = "Entries held per cache shard (updated at compaction and on demand)."

#: Every metric family the library emits: ``name -> (kind, sorted label
#: names, help text)``. ``kind`` is ``counter``, ``gauge`` or ``histogram``.
METRICS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    # -- solvers
    "repro_solver_runs_total": (
        "counter", ("solver", "status"), "Completed solver runs by solver and verdict."
    ),
    "repro_solver_decisions_total": ("counter", ("solver",), _WORK),
    "repro_solver_propagations_total": ("counter", ("solver",), _WORK),
    "repro_solver_conflicts_total": ("counter", ("solver",), _WORK),
    "repro_solver_learned_clauses_total": ("counter", ("solver",), _WORK),
    "repro_solver_restarts_total": ("counter", ("solver",), _WORK),
    "repro_solver_flips_total": ("counter", ("solver",), _WORK),
    "repro_solver_evaluations_total": ("counter", ("solver",), _WORK),
    "repro_solver_timeouts_total": (
        "counter", ("solver",), "Runs that ended by exhausting their wall-clock budget."
    ),
    "repro_solver_wall_seconds": (
        "histogram", ("solver",), "Per-run wall-clock time by solver."
    ),
    "repro_learned_db_clauses": (
        "gauge",
        ("solver",),
        "Current clause-database size (problem + learned clauses).",
    ),
    # -- the CDCL arena kernel
    "repro_cdcl_propagations_total": (
        "counter", (), "Literal propagations performed by the CDCL arena kernel."
    ),
    "repro_cdcl_watch_list_length_avg": (
        "gauge", (), "Average two-watched-literal watch-list length per literal."
    ),
    "repro_cdcl_watch_list_length_max": (
        "gauge", (), "Longest two-watched-literal watch list over all literals."
    ),
    "repro_cdcl_reductions_total": (
        "counter", (), "Learned-clause database reductions run by the CDCL kernel."
    ),
    "repro_cdcl_clauses_deleted_total": (
        "counter", (), "Learned clauses deleted by DB reduction in the CDCL kernel."
    ),
    # -- preprocessing
    "repro_preprocess_runs_total": (
        "counter", ("status",), "Completed preprocessing runs by final status."
    ),
    "repro_preprocess_clauses_removed_total": (
        "counter", (), "Clauses removed by the preprocessing pipeline."
    ),
    "repro_preprocess_clause_reduction_ratio": (
        "gauge", (), "Clause-reduction fraction of the most recent preprocessing run."
    ),
    "repro_preprocess_wall_seconds": (
        "histogram", (), "Per-run wall-clock time of the preprocessing pipeline."
    ),
    # -- result cache
    "repro_cache_hits_total": (
        "counter", (), "Result-cache lookups answered from cache."
    ),
    "repro_cache_misses_total": ("counter", (), "Result-cache lookups that missed."),
    "repro_cache_evictions_total": (
        "counter", (), "Entries evicted by the LRU policy."
    ),
    "repro_cache_size": ("gauge", (), "Entries currently held by the result cache."),
    "repro_cache_max_size": ("gauge", (), "Configured result-cache capacity."),
    "repro_cache_hit_ratio": (
        "gauge", (), "Lifetime hits / lookups of the result cache (0 when unused)."
    ),
    # -- sharded persistent cache
    "repro_cache_wal_records_total": (
        "counter", ("shard",), "Records appended to shard write-ahead logs."
    ),
    "repro_cache_wal_replayed_total": (
        "counter", (), "WAL records replayed into memory at cache load."
    ),
    "repro_cache_wal_torn_total": (
        "counter", (), "Torn (crash-truncated) WAL records dropped at cache load."
    ),
    "repro_cache_compactions_total": (
        "counter", ("shard",), "Shard snapshot-and-truncate compactions."
    ),
    "repro_cache_shard_entries": ("gauge", ("shard",), _SHARD_ENTRIES),
    "repro_cache_lock_wait_seconds": (
        "histogram", (), "Wall-clock wait to acquire a shard's cross-process lease."
    ),
    "repro_cache_lock_takeovers_total": (
        "counter", ("shard",), "Stale shard leases taken over after their holder died."
    ),
    # -- worker pool and batch runner
    "repro_pool_tasks_total": (
        "counter", ("status",), "Jobs executed by the worker pool, by outcome status."
    ),
    "repro_pool_task_seconds": (
        "histogram", (), "Per-job wall-clock time in the pool."
    ),
    "repro_pool_queue_depth": (
        "gauge", (), "Jobs submitted to the pool and not yet finished."
    ),
    "repro_batch_outcomes_total": (
        "counter",
        ("from_cache", "status"),
        "Batch outcomes by status and cache provenance.",
    ),
    # -- service and client
    "repro_service_requests_total": (
        "counter", ("code", "op"), "Service requests by operation and response code."
    ),
    "repro_service_request_seconds": (
        "histogram",
        ("op",),
        "Wall-clock time from request receipt to response, by operation.",
    ),
    "repro_service_dedup_hits_total": (
        "counter", (), "Requests that joined an identical in-flight solve."
    ),
    "repro_service_rejections_total": (
        "counter", (), "Requests rejected because the admission queue was full."
    ),
    "repro_service_queue_depth": (
        "gauge", (), "Requests waiting for an executor slot."
    ),
    "repro_service_inflight": (
        "gauge", (), "Distinct solves currently running in the executor."
    ),
    "repro_service_degraded": (
        "gauge", (), "1 while the service is serving without persistence, else 0."
    ),
    "repro_service_persist_failures_total": (
        "counter", (), "Cache-persist failures absorbed by degrading to serve-only."
    ),
    "repro_service_retries_total": (
        "counter", ("reason",), "Client request retries by reason."
    ),
    "repro_service_reconnects_total": (
        "counter", (), "Client TCP reconnects after a transport failure."
    ),
    # -- fault injection
    "repro_faults_injected_total": (
        "counter", ("kind", "point"), "Faults injected by the active fault plan."
    ),
    # -- proofs
    "repro_proof_lines_total": (
        "counter", ("kind",), "DRAT proof lines emitted, by line kind."
    ),
    "repro_proof_logs_total": (
        "counter", ("incomplete",), "Finished proof logs by completeness."
    ),
    "repro_proof_checks_total": (
        "counter", ("status",), "Proof-checker runs by verdict."
    ),
    "repro_proof_check_steps_total": (
        "counter", (), "Proof steps replayed by the checker."
    ),
    "repro_proof_check_seconds": (
        "histogram", (), "Per-run wall-clock time of the proof checker."
    ),
    # -- incremental sessions
    "repro_session_queries_total": (
        "counter",
        ("solver", "status"),
        "Incremental-session queries by session solver and verdict.",
    ),
}


def active() -> bool:
    """``True`` when tracing or metrics collection is on (the site guard)."""
    return _trace._current_tracer.enabled or _metrics._enabled


def tracing_active() -> bool:
    """``True`` when a recording tracer is installed."""
    return _trace._current_tracer.enabled


def tracer() -> Union[Tracer, NullTracer]:
    """The current tracer (shared null tracer when disabled)."""
    return _trace._current_tracer


def span(name: str, **attributes: Any) -> Union[Span, _NullSpan]:
    """A span on the current tracer (the shared no-op span when disabled).

    Call with no keyword attributes on hot paths — the disabled form then
    allocates nothing — and attach attributes inside an ``if
    span.recording:`` block instead.
    """
    return _trace._current_tracer.span(name, **attributes)


def event(name: str, **attributes: Any) -> Optional[Span]:
    """A zero-duration span under the current span (dropped when disabled)."""
    return _trace._current_tracer.event(name, **attributes)


def emit(name: str, value: float = 1, **labels: Any) -> None:
    """Record ``value`` on the declared metric ``name`` with ``labels``.

    Counters add ``value``, gauges are set to it and histograms observe
    it. Returns at once while metrics collection is off; raises
    :class:`~repro.exceptions.ReproError` when ``name`` is not in
    :data:`METRICS` or ``labels`` are not exactly its declared label names.
    """
    if not _metrics._enabled:
        return
    declared = METRICS.get(name)
    if declared is None:
        raise ReproError(f"metric {name!r} is not declared in METRICS")
    kind, label_names, help_text = declared
    if tuple(sorted(labels)) != label_names:
        raise ReproError(
            f"metric {name!r} takes labels {label_names}, got {tuple(sorted(labels))}"
        )
    registry = _metrics.get_metrics()
    if kind == "counter":
        registry.counter(name, help_text, **labels).inc(value)
    elif kind == "gauge":
        registry.gauge(name, help_text, **labels).set(value)
    else:
        registry.histogram(name, help_text, **labels).observe(value)


def record_solve(solver_name: str, result) -> None:
    """Feed one :class:`~repro.solvers.base.SolverResult` into the registry."""
    if not _metrics._enabled:
        return
    stats = result.stats
    emit("repro_solver_runs_total", solver=solver_name, status=result.status)
    if stats.decisions:
        emit("repro_solver_decisions_total", stats.decisions, solver=solver_name)
    if stats.propagations:
        emit("repro_solver_propagations_total", stats.propagations, solver=solver_name)
    if stats.conflicts:
        emit("repro_solver_conflicts_total", stats.conflicts, solver=solver_name)
    if stats.learned_clauses:
        emit(
            "repro_solver_learned_clauses_total",
            stats.learned_clauses,
            solver=solver_name,
        )
    if stats.restarts:
        emit("repro_solver_restarts_total", stats.restarts, solver=solver_name)
    if stats.flips:
        emit("repro_solver_flips_total", stats.flips, solver=solver_name)
    if stats.evaluations:
        emit("repro_solver_evaluations_total", stats.evaluations, solver=solver_name)
    if result.timed_out:
        emit("repro_solver_timeouts_total", solver=solver_name)
    emit("repro_solver_wall_seconds", stats.elapsed_seconds, solver=solver_name)
