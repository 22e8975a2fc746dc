"""Append one CDCL-kernel measurement to the ``BENCH_cdcl.json`` trajectory.

Run from the repository root::

    PYTHONPATH=src python benchmarks/record_trajectory.py            # append
    PYTHONPATH=src python benchmarks/record_trajectory.py --check    # validate
    PYTHONPATH=src python benchmarks/record_trajectory.py --service  # service entry

The workload is fixed and fully deterministic, in two blocks:

* the *search* block — a pigeonhole refutation, a C5 graph-coloring
  encoding and a band of phase-transition random 3-SAT instances —
  exercises the full conflict-analysis machinery;
* the *bcp* block — a long implication chain solved fresh (load + one
  propagation cascade) and the same chain loaded once into an
  incremental session and re-propagated across repeated assumption
  queries — measures raw unit-propagation throughput, the way the
  always-on solve server experiences the kernel.

Entries appended over time are directly comparable. The headline metrics
are ``decisions_per_sec`` and ``propagations_per_sec`` of the CDCL
kernel across the whole workload; per-block rates are recorded alongside
so search-machinery and propagation-throughput changes stay separable.

``--check`` runs the same workload but *validates* instead of appending:

* the workload must produce the expected verdicts;
* ``propagations_per_sec`` must not regress below the trajectory's seed
  entry times ``--min-speedup`` (default 1.0 — no regression);
* the telemetry artifacts (optional ``--trace``/``--metrics`` outputs) must
  be readable back, and every metric family in the ``--metrics`` artifact
  must be declared in ``telemetry.METRICS`` with the same kind;
* the projected cost of the disabled-telemetry guards on the CDCL hot path
  must stay under ``--max-overhead`` (default 3%). The projection
  multiplies the measured per-guard cost of ``telemetry``'s disabled
  checks by the guard count of one enabled run (counted from a trace) and
  compares it against the measured per-solve wall time;
* the projected cost of the disabled proof-emission guards
  (``self._proof is not None`` at every learned-clause site) must stay
  under ``--max-proof-overhead`` (default 10%), using the workload's own
  conflict counts as the guard count.

``--service`` appends a ``service-throughput`` entry to
``BENCH_service.json`` instead: an in-process :class:`SolveService` is
driven through a cold pass (every request executes) and a warm pass
(every request absorbed by the sharded cache / in-flight dedup), and the
jobs-per-second of each pass is recorded.

Exit codes: 0 on success; 1 when a check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry  # noqa: E402
from repro.cnf import CNFFormula  # noqa: E402
from repro.cnf.generators import random_ksat  # noqa: E402
from repro.cnf.structured import (  # noqa: E402
    cycle_graph_edges,
    graph_coloring_formula,
    pigeonhole_formula,
)
from repro.runtime.pool import JobExecutor  # noqa: E402
from repro.service import ServiceConfig, SolveService  # noqa: E402
from repro.solvers.cdcl import CDCLSolver  # noqa: E402
from repro.telemetry import instrument as _instrument  # noqa: E402

DEFAULT_BENCH_FILE = REPO_ROOT / "BENCH_cdcl.json"
DEFAULT_SERVICE_BENCH_FILE = REPO_ROOT / "BENCH_service.json"

#: Phase-transition band of the fixed random 3-SAT block.
_RANDOM_VARIABLES = 40
_RANDOM_RATIO = 4.26
_RANDOM_SEEDS = tuple(range(8))

#: The bcp (propagation-throughput) block: implication-chain length for
#: the fresh solve, and chain length / query count for the incremental
#: re-propagation runner.
_BCP_CHAIN_VARIABLES = 60_000
_BCP_SESSION_VARIABLES = 30_000
_BCP_SESSION_QUERIES = 10

#: The fixed service-throughput workload: distinct instances for the
#: cold pass, each resubmitted ``_SERVICE_WARM_COPIES`` times warm.
_SERVICE_FORMULAS = 16
_SERVICE_WARM_COPIES = 3
_SERVICE_VARIABLES = 12
_SERVICE_RATIO = 4.26


def _chain_formula(num_vars: int, rooted: bool) -> CNFFormula:
    """A binary implication chain ``x1 -> x2 -> ... -> xn``.

    ``rooted`` adds the unit ``(x1)``, making the instance solvable by a
    single propagation cascade; without it the cascade is triggered by
    assuming ``x1``.
    """
    clauses = [[1]] if rooted else []
    clauses.extend([-i, i + 1] for i in range(1, num_vars))
    return CNFFormula.from_ints(clauses, num_variables=num_vars)


def _run_incremental_bcp():
    """Re-propagate one chain across repeated warm assumption queries.

    The chain is loaded into an incremental solver once (setup, not
    timed), then solved ``_BCP_SESSION_QUERIES`` times under the
    assumption ``x1`` — each query backtracks to the root and replays
    the full implication cascade, so the measured wall time is almost
    pure propagation with zero clause-load cost, exactly the shape of a
    warm solve-server query stream.
    """
    solver = CDCLSolver()
    solver.begin_incremental(num_variables=_BCP_SESSION_VARIABLES)
    for i in range(1, _BCP_SESSION_VARIABLES):
        solver.attach_clause([-i, i + 1])
    return [
        solver.solve_incremental(assumptions=[1])
        for _ in range(_BCP_SESSION_QUERIES)
    ]


def _workload():
    """The fixed instance list: ``(label, block, runner, expected_status)``.

    ``block`` groups instances for the per-block rate metrics ("search"
    or "bcp"); ``runner`` is a zero-argument callable returning one
    :class:`SolverResult` or a list of them.
    """

    def fresh(formula):
        return lambda: CDCLSolver().solve(formula)

    instances = [
        ("pigeonhole-5-4", "search", fresh(pigeonhole_formula(5, 4)), "UNSAT"),
        (
            "coloring-c5-3",
            "search",
            fresh(graph_coloring_formula(cycle_graph_edges(5), 5, 3)),
            "SAT",
        ),
    ]
    num_clauses = max(1, int(round(_RANDOM_RATIO * _RANDOM_VARIABLES)))
    for seed in _RANDOM_SEEDS:
        instances.append(
            (
                f"random-3sat-{_RANDOM_VARIABLES}v-s{seed}",
                "search",
                fresh(random_ksat(_RANDOM_VARIABLES, num_clauses, seed=seed)),
                None,  # verdict varies by seed at the phase transition
            )
        )
    instances.append(
        (
            f"bcp-chain-{_BCP_CHAIN_VARIABLES // 1000}k",
            "bcp",
            fresh(_chain_formula(_BCP_CHAIN_VARIABLES, rooted=True)),
            "SAT",
        )
    )
    instances.append(
        (
            f"bcp-session-chain-{_BCP_SESSION_VARIABLES // 1000}k"
            f"-x{_BCP_SESSION_QUERIES}",
            "bcp",
            _run_incremental_bcp,
            "SAT",
        )
    )
    return instances


def _run_workload():
    """Run every instance; returns (aggregate dict, per-instance results).

    The aggregate carries whole-workload totals plus per-block
    ``<block>_propagations`` / ``<block>_wall_seconds`` subtotals.
    """
    totals = {
        "decisions": 0,
        "propagations": 0,
        "conflicts": 0,
        "wall_seconds": 0.0,
    }
    results = []
    for label, block, runner, expected in _workload():
        outcome = runner()
        for result in outcome if isinstance(outcome, list) else [outcome]:
            if expected is not None and result.status != expected:
                raise SystemExit(
                    f"workload instance {label} returned {result.status}, "
                    f"expected {expected}"
                )
            totals["decisions"] += result.stats.decisions
            totals["propagations"] += result.stats.propagations
            totals["conflicts"] += result.stats.conflicts
            totals["wall_seconds"] += result.stats.elapsed_seconds
            totals[f"{block}_propagations"] = (
                totals.get(f"{block}_propagations", 0)
                + result.stats.propagations
            )
            totals[f"{block}_wall_seconds"] = (
                totals.get(f"{block}_wall_seconds", 0.0)
                + result.stats.elapsed_seconds
            )
            results.append((label, result))
    return totals, results


def _build_record(totals, instance_count: int) -> telemetry.BenchRecord:
    wall = max(totals["wall_seconds"], 1e-9)
    metrics = {
        "decisions_per_sec": round(totals["decisions"] / wall, 2),
        "propagations_per_sec": round(totals["propagations"] / wall, 2),
        "decisions": float(totals["decisions"]),
        "propagations": float(totals["propagations"]),
        "conflicts": float(totals["conflicts"]),
        "wall_seconds": round(wall, 6),
    }
    # Per-block rates keep search-machinery and raw-propagation changes
    # separable in the trajectory.
    for block in ("search", "bcp"):
        props = totals.get(f"{block}_propagations", 0)
        block_wall = totals.get(f"{block}_wall_seconds", 0.0)
        if props:
            metrics[f"{block}_propagations_per_sec"] = round(
                props / max(block_wall, 1e-9), 2
            )
    return telemetry.BenchRecord(
        benchmark="cdcl-kernel",
        metrics=metrics,
        workload={
            "instances": instance_count,
            "pigeonhole": "5 pigeons / 4 holes",
            "coloring": "C5 with 3 colors",
            "random": (
                f"{len(_RANDOM_SEEDS)} x 3-SAT, {_RANDOM_VARIABLES} vars, "
                f"ratio {_RANDOM_RATIO}, seeds {_RANDOM_SEEDS[0]}.."
                f"{_RANDOM_SEEDS[-1]}"
            ),
            "bcp": (
                f"implication chain {_BCP_CHAIN_VARIABLES} vars fresh; "
                f"chain {_BCP_SESSION_VARIABLES} vars incremental x"
                f"{_BCP_SESSION_QUERIES} assumption queries"
            ),
        },
        meta={
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    )


def _seed_propagation_rate(bench_file) -> float:
    """``propagations_per_sec`` of the trajectory's seed cdcl-kernel entry.

    Returns 0.0 when the file is missing or holds no cdcl-kernel entry
    (a fresh checkout) — the regression gate is skipped in that case.
    """
    path = Path(bench_file)
    if not path.exists():
        return 0.0
    for record in telemetry.load_bench_records(path):
        if record.benchmark == "cdcl-kernel":
            return float(record.metrics.get("propagations_per_sec", 0.0))
    return 0.0


def run_service_workload() -> dict:
    """Drive an in-process :class:`SolveService` cold, then warm.

    The cold pass submits ``_SERVICE_FORMULAS`` distinct instances
    concurrently into an empty cache, so every request executes a fresh
    solve. The warm pass resubmits each instance ``_SERVICE_WARM_COPIES``
    times concurrently; every one of those requests must be absorbed by
    the sharded result cache (or, had the representative still been in
    flight, by dedup) without reaching the executor. Returns the metrics
    dict of one ``service-throughput`` trajectory entry; raises
    ``SystemExit`` when a request fails or a warm request re-executes.
    """
    num_clauses = max(1, int(round(_SERVICE_RATIO * _SERVICE_VARIABLES)))
    clause_lists = [
        random_ksat(_SERVICE_VARIABLES, num_clauses, seed=seed).to_ints()
        for seed in range(_SERVICE_FORMULAS)
    ]

    def request(tag: str, index: int, clauses) -> str:
        return json.dumps(
            {
                "op": "solve",
                "id": f"{tag}-{index}",
                "clauses": clauses,
                "num_variables": _SERVICE_VARIABLES,
            }
        )

    cold = [request("cold", i, c) for i, c in enumerate(clause_lists)]
    warm = [
        request(f"warm{copy}", i, clauses)
        for copy in range(_SERVICE_WARM_COPIES)
        for i, clauses in enumerate(clause_lists)
    ]

    executor = JobExecutor(workers=1, master_seed=7, inline=False)
    service = SolveService(
        ServiceConfig(solver="cdcl", queue_limit=len(cold) + len(warm)),
        executor=executor,
    )

    async def drive(lines):
        start = time.perf_counter()
        responses = await asyncio.gather(
            *(service.handle_line(line) for line in lines)
        )
        return responses, time.perf_counter() - start

    async def both_passes():
        cold_result = await drive(cold)
        warm_result = await drive(warm)
        return cold_result, warm_result

    try:
        (cold_responses, cold_seconds), (warm_responses, warm_seconds) = (
            asyncio.run(both_passes())
        )
    finally:
        executor.shutdown()

    for response in cold_responses + warm_responses:
        if response["code"] != 200:
            raise SystemExit(f"service workload request failed: {response}")
    re_executed = [
        r
        for r in warm_responses
        if not (r.get("from_cache") or r.get("deduped"))
    ]
    if re_executed:
        raise SystemExit(
            f"{len(re_executed)} warm requests re-executed instead of "
            "being served from cache/dedup"
        )

    cold_rate = len(cold_responses) / max(cold_seconds, 1e-9)
    warm_rate = len(warm_responses) / max(warm_seconds, 1e-9)
    stats = service.stats
    return {
        "cold_jobs_per_sec": round(cold_rate, 2),
        "warm_jobs_per_sec": round(warm_rate, 2),
        "warm_speedup": round(warm_rate / max(cold_rate, 1e-9), 2),
        "executed": float(stats.executed),
        "cache_hits": float(stats.cache_hits),
        "dedup_hits": float(stats.dedup_hits),
        "cold_wall_seconds": round(cold_seconds, 6),
        "warm_wall_seconds": round(warm_seconds, 6),
    }


def build_service_record(metrics: dict) -> telemetry.BenchRecord:
    """One ``service-throughput`` trajectory entry from workload metrics."""
    return telemetry.BenchRecord(
        benchmark="service-throughput",
        metrics=metrics,
        workload={
            "formulas": _SERVICE_FORMULAS,
            "warm_copies": _SERVICE_WARM_COPIES,
            "random": (
                f"3-SAT, {_SERVICE_VARIABLES} vars, ratio {_SERVICE_RATIO}, "
                f"seeds 0..{_SERVICE_FORMULAS - 1}"
            ),
            "solver": "cdcl",
            "workers": 1,
        },
        meta={
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    )


def _measure_guard_cost(iterations: int = 200_000) -> float:
    """Per-call cost (seconds) of the disabled-telemetry guard.

    Subtracts an empty-loop baseline so only the ``active()`` /
    ``tracing_active()`` call itself is charged.
    """
    guard = _instrument.tracing_active
    start = time.perf_counter()
    for _ in range(iterations):
        guard()
    guarded = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(iterations):
        pass
    baseline = time.perf_counter() - start
    return max(guarded - baseline, 0.0) / iterations


def _measure_proof_guard_cost(iterations: int = 200_000) -> float:
    """Per-call cost (seconds) of the disabled proof-emission guard.

    Every emission site in the CDCL kernel guards on
    ``self._proof is not None``; measure that attribute load plus the
    ``None`` test on a real (proof-less) solver instance, subtracting the
    same empty-loop baseline as :func:`_measure_guard_cost`.
    """
    solver = CDCLSolver()
    start = time.perf_counter()
    for _ in range(iterations):
        solver._proof is not None  # noqa: B015 - the guard under test
    guarded = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(iterations):
        pass
    baseline = time.perf_counter() - start
    return max(guarded - baseline, 0.0) / iterations


def _count_guards_per_run() -> tuple[int, int]:
    """(guard evaluations, solver runs) of one fully-traced workload pass.

    Every CDCL search iteration evaluates exactly one ``tracing_active``
    guard before propagating, so the traced ``propagate`` span count is the
    loop-iteration count; restarts and the per-solve wrapper add a handful
    more. The count deliberately over-approximates (each span also implies
    its attribute bookkeeping) so the overhead projection stays pessimistic.
    """
    tracer = telemetry.start_tracing(capacity=4096)
    try:
        _run_workload()
        guards = 0
        runs = 0
        for root in tracer.finished:
            runs += 1
            for span in root.walk():
                guards += 1
                guards += span.truncated_children
    finally:
        telemetry.stop_tracing()
    return guards, max(runs, 1)


def _undeclared_families(path: str, text: str) -> list[str]:
    """Families in a metrics artifact that ``telemetry.METRICS`` does not
    declare with the same kind (``.json`` snapshots or Prometheus text)."""
    if path.endswith(".json"):
        kinds = {name: entry["type"] for name, entry in json.loads(text).items()}
    else:
        kinds = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                kinds[name] = kind
    problems = []
    for name, kind in sorted(kinds.items()):
        declared = telemetry.METRICS.get(name)
        if declared is None:
            problems.append(f"{name} ({kind}) is not declared in METRICS")
        elif declared[0] != kind:
            problems.append(f"{name} is a {kind}, METRICS declares {declared[0]}")
    return problems


def _check(args) -> int:
    failures = []

    # 1. The workload itself must behave (verdicts + nonzero work).
    if args.trace:
        telemetry.start_tracing(sink=args.trace)
    if args.metrics:
        telemetry.enable_metrics()
    try:
        totals, results = _run_workload()
    finally:
        if args.trace:
            telemetry.stop_tracing()
        if args.metrics:
            telemetry.write_metrics(args.metrics)
            telemetry.disable_metrics()
    if totals["decisions"] == 0 or totals["propagations"] == 0:
        failures.append("workload produced no decisions/propagations")
    measured_pps = totals["propagations"] / max(totals["wall_seconds"], 1e-9)
    print(
        f"workload: {len(results)} instances, "
        f"{totals['decisions']} decisions, "
        f"{totals['propagations']} propagations in "
        f"{totals['wall_seconds']:.3f}s ({measured_pps:,.0f} props/sec)"
    )

    # 1b. Propagation-rate regression gate against the seed entry.
    bench_file = args.bench_file or str(DEFAULT_BENCH_FILE)
    seed_pps = _seed_propagation_rate(bench_file)
    if seed_pps > 0.0:
        floor = seed_pps * args.min_speedup
        print(
            f"propagation-rate gate: measured {measured_pps:,.0f} vs seed "
            f"{seed_pps:,.0f} x {args.min_speedup:g} = floor {floor:,.0f} "
            f"props/sec"
        )
        if measured_pps < floor:
            failures.append(
                f"propagations_per_sec {measured_pps:,.0f} regressed below "
                f"the seed-entry floor {floor:,.0f} "
                f"(seed {seed_pps:,.0f} x --min-speedup {args.min_speedup:g})"
            )
    else:
        print(
            f"propagation-rate gate: skipped (no seed cdcl-kernel entry "
            f"in {bench_file})"
        )

    # 2. Artifacts written above must read back.
    if args.trace:
        roots = telemetry.load_trace(args.trace)
        names = {span.name for root in roots for span in root.walk()}
        if "solve" not in names:
            failures.append(f"trace {args.trace} has no 'solve' span")
        print(f"trace: {len(roots)} roots, span names {sorted(names)}")
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            metrics_text = handle.read()
        if "repro_solver_runs_total" not in metrics_text:
            failures.append(f"metrics {args.metrics} lacks solver counters")
        for problem in _undeclared_families(args.metrics, metrics_text):
            failures.append(f"metrics {args.metrics}: {problem}")
        print(f"metrics: {len(metrics_text.splitlines())} lines")

    # 3. Disabled-path overhead projection.
    guard_cost = _measure_guard_cost()
    guards, runs = _count_guards_per_run()
    per_run_guards = guards / runs
    per_run_seconds = max(totals["wall_seconds"] / len(results), 1e-9)
    overhead = (per_run_guards * guard_cost) / per_run_seconds
    print(
        f"disabled-path overhead: {guard_cost * 1e9:.1f}ns/guard x "
        f"{per_run_guards:.0f} guards/solve over {per_run_seconds * 1e3:.2f}"
        f"ms/solve = {overhead:.3%} (limit {args.max_overhead:.0%})"
    )
    if overhead > args.max_overhead:
        failures.append(
            f"projected disabled-telemetry overhead {overhead:.3%} exceeds "
            f"{args.max_overhead:.0%}"
        )

    # 4. Proof-emission disabled-path overhead projection. The guard
    # fires once per learned clause (one conflict learns one clause)
    # plus a constant handful per run (the empty-clause and timeout
    # sites), so the workload's own conflict totals bound the count.
    proof_guard_cost = _measure_proof_guard_cost()
    per_run_proof_guards = totals["conflicts"] / len(results) + 4
    proof_overhead = (per_run_proof_guards * proof_guard_cost) / per_run_seconds
    print(
        f"proof-emission disabled-path overhead: "
        f"{proof_guard_cost * 1e9:.1f}ns/guard x "
        f"{per_run_proof_guards:.0f} guards/solve over "
        f"{per_run_seconds * 1e3:.2f}ms/solve = {proof_overhead:.3%} "
        f"(limit {args.max_proof_overhead:.0%})"
    )
    if proof_overhead > args.max_proof_overhead:
        failures.append(
            f"projected disabled proof-emission overhead "
            f"{proof_overhead:.3%} exceeds {args.max_proof_overhead:.0%}"
        )

    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-file",
        default=None,
        help="trajectory file to append to (default: BENCH_cdcl.json at "
        "the repository root, or BENCH_service.json with --service)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the workload, artifacts and disabled-path overhead "
        "instead of appending an entry",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="append a service-throughput entry (an in-process SolveService "
        "driven cold then cache-warm) instead of the CDCL-kernel entry",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="--check fails when measured propagations_per_sec falls below "
        "the trajectory's seed entry times this factor (default: 1.0, i.e. "
        "no regression; 0 disables the gate)",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.03,
        help="--check fails when the projected disabled-telemetry overhead "
        "exceeds this fraction (default: 0.03)",
    )
    parser.add_argument(
        "--max-proof-overhead",
        type=float,
        default=0.10,
        help="--check fails when the projected disabled proof-emission "
        "overhead exceeds this fraction (default: 0.10)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="with --check: also record a JSONL trace artifact to FILE",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="with --check: also write a metrics artifact to FILE",
    )
    args = parser.parse_args(argv)

    if args.check:
        return _check(args)

    if args.service:
        bench_file = args.bench_file or str(DEFAULT_SERVICE_BENCH_FILE)
        record = build_service_record(run_service_workload())
    else:
        bench_file = args.bench_file or str(DEFAULT_BENCH_FILE)
        totals, results = _run_workload()
        record = _build_record(totals, len(results))
    count = telemetry.append_bench_record(bench_file, record)
    print(record.to_text())
    print(f"appended entry {count} to {bench_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
