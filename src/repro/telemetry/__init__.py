"""repro.telemetry — structured tracing, metrics and the perf trajectory.

The observability layer of the stack. Three parts, all off by default and
designed to cost one bool check per instrumentation site when disabled:

* :mod:`repro.telemetry.trace` — :class:`Tracer` / :class:`Span`: nested,
  monotonic-clock spans (``solve``, ``preprocess``, ``propagate``,
  ``restart``, ``cache.lookup``, ``pool.task``, ...) recorded into a ring
  buffer and an optional JSONL sink. :func:`start_tracing` /
  :func:`stop_tracing` manage the process-wide tracer.
* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` of counters,
  gauges and histograms with Prometheus-text and JSON exporters;
  :func:`enable_metrics` switches collection on for the process-wide
  registry (:func:`get_metrics`).
* :mod:`repro.telemetry.recorder` — :class:`BenchRecord` and the
  append-only, schema-versioned ``BENCH_*.json`` trajectory files that
  gate hot-path work (``benchmarks/record_trajectory.py`` maintains
  ``BENCH_cdcl.json``).

Instrumentation is wired through the solvers, the runtime subsystem, the
preprocessing pipeline and the incremental sessions
(:mod:`repro.telemetry.instrument`): every metric family is declared once
in :data:`METRICS` and recorded through :func:`emit`. The CLI exposes it as
``--trace FILE`` / ``--metrics FILE`` on ``solve``/``check``/``batch``/
``incremental`` plus the ``repro stats`` reader. The span taxonomy and the
metric catalogue are documented in ``docs/observability.md`` and checked
against :data:`SPAN_TAXONOMY` and :data:`METRICS` by the test suite.

Quickstart::

    from repro import telemetry
    from repro.cnf.generators import random_ksat
    from repro.solvers.cdcl import CDCLSolver

    tracer = telemetry.start_tracing(sink="trace.jsonl")
    telemetry.enable_metrics()
    CDCLSolver().solve(random_ksat(12, 50, seed=1))
    print(telemetry.get_metrics().to_prometheus())
    telemetry.stop_tracing()
"""

from repro.telemetry.instrument import (
    METRICS,
    active,
    emit,
    event,
    record_solve,
    span,
    tracer,
)
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    metrics_active,
    write_metrics,
)
from repro.telemetry.recorder import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    append_bench_record,
    load_bench_records,
)
from repro.telemetry.trace import (
    NULL_SPAN,
    NULL_TRACER,
    SPAN_TAXONOMY,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    load_trace,
    set_tracer,
    start_tracing,
    stop_tracing,
    tracing_active,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "SPAN_TAXONOMY",
    "Span",
    "Tracer",
    "active",
    "append_bench_record",
    "disable_metrics",
    "emit",
    "enable_metrics",
    "event",
    "get_metrics",
    "get_tracer",
    "load_bench_records",
    "load_trace",
    "metrics_active",
    "record_solve",
    "set_tracer",
    "span",
    "start_tracing",
    "stop_tracing",
    "tracer",
    "tracing_active",
    "write_metrics",
]
