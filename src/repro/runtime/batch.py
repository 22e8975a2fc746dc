"""Batch ingestion and aggregate reporting.

:class:`BatchRunner` is the top of the serving stack: it discovers DIMACS
files from directories, glob patterns and explicit paths, serves repeats
from a :class:`~repro.runtime.shards.ShardedResultCache`, fans the misses
out over a :class:`~repro.runtime.pool.JobExecutor`, stores each verdict as
it arrives, and aggregates everything into a :class:`BatchReport`
(throughput, cache hit rate, per-solver win counts).
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.cnf.dimacs import parse_dimacs_file
from repro.exceptions import CachePersistError, ReproError, RuntimeSubsystemError
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.jobs import (
    ERROR,
    NO_PROOF_SPECS,
    SolveJob,
    SolveOutcome,
    known_solver_specs,
)
from repro.runtime.pool import JobExecutor
from repro.runtime.shards import ShardedResultCache
from repro.telemetry import instrument as _telemetry

PathLike = Union[str, os.PathLike]


def discover_instances(
    paths: Sequence[PathLike], pattern: str = "*.cnf"
) -> list[Path]:
    """Expand files, directories and glob patterns into a sorted file list.

    * a file path is taken as-is;
    * a directory is scanned recursively for ``pattern``;
    * anything else is tried as a glob pattern.

    The result is sorted and de-duplicated so a batch is independent of
    filesystem enumeration order. An input that matches nothing raises
    :class:`RuntimeSubsystemError` — a silently empty batch usually means a
    typo in the path.
    """
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            found.add(path)
        elif path.is_dir():
            matched = [p for p in path.rglob(pattern) if p.is_file()]
            if not matched:
                raise RuntimeSubsystemError(
                    f"directory {str(raw)!r} contains no files matching {pattern!r}"
                )
            found.update(matched)
        else:
            matches = [
                p
                for p in (Path(m) for m in glob.glob(str(raw), recursive=True))
                if p.is_file()
            ]
            if not matches:
                raise RuntimeSubsystemError(
                    f"no DIMACS instances match {str(raw)!r}"
                )
            found.update(matches)
    return sorted(found)


@dataclass
class BatchReport:
    """Aggregate view of one batch run."""

    outcomes: list[SolveOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    cache_stats: Optional[CacheStats] = None
    #: Verdicts the cache could not persist (kept in memory instead).
    persist_failures: int = 0

    @property
    def total(self) -> int:
        """Number of instances processed."""
        return len(self.outcomes)

    @property
    def status_counts(self) -> dict[str, int]:
        """Instance count per final status."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def cache_hits(self) -> int:
        """How many outcomes were served from the cache."""
        return sum(1 for o in self.outcomes if o.from_cache)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this batch served from the cache."""
        if not self.outcomes:
            return 0.0
        return self.cache_hits / len(self.outcomes)

    @property
    def win_counts(self) -> dict[str, int]:
        """Solved-instance count per winning engine/solver (cache hits excluded)."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.winner and not outcome.from_cache and outcome.is_definitive:
                counts[outcome.winner] = counts.get(outcome.winner, 0) + 1
        return counts

    @property
    def throughput(self) -> float:
        """Instances per second of wall-clock time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total / self.wall_seconds

    def to_text(self) -> str:
        """Human-readable report (the CLI's output)."""
        lines = [
            f"batch: {self.total} instances in {self.wall_seconds:.3f}s "
            f"({self.throughput:.1f}/s, workers={self.workers})"
        ]
        for status in sorted(self.status_counts):
            lines.append(f"  {status:8s} {self.status_counts[status]}")
        lines.append(
            f"  cache    {self.cache_hits} hits "
            f"({self.cache_hit_rate:.0%} of batch)"
        )
        if self.cache_stats is not None:
            stats = self.cache_stats
            lines.append(
                f"  lifetime {stats.hits}/{stats.lookups} cache lookups hit "
                f"({stats.hit_rate:.0%}), {stats.evictions} evictions, "
                f"{stats.size}/{stats.max_size} entries held"
            )
        if self.win_counts:
            wins = ", ".join(
                f"{name}={count}"
                for name, count in sorted(
                    self.win_counts.items(), key=lambda item: (-item[1], item[0])
                )
            )
            lines.append(f"  wins     {wins}")
        for outcome in self.outcomes:
            if outcome.status == ERROR:
                lines.append(f"  error    {outcome.label or outcome.job_id}: {outcome.error}")
        return "\n".join(lines)


class BatchRunner:
    """Cache-fronted, executor-backed batch solving of DIMACS instances.

    Parameters
    ----------
    solver:
        Solver spec applied to every instance (see
        :class:`~repro.runtime.jobs.SolveJob`); the default
        ``"portfolio"`` runs the exact NBL engine up to 20 variables and
        CDCL above.
    workers:
        Worker count of the :class:`~repro.runtime.pool.JobExecutor` each
        run builds (1 solves in-process).
    master_seed:
        Root of the deterministic per-job seed derivation.
    cache:
        The cache to serve repeats from and store verdicts in: a
        :class:`~repro.runtime.shards.ShardedResultCache` (persistent when
        opened on a directory) or a :class:`ResultCache`; ``None`` builds
        an in-memory ``ShardedResultCache()``. A verdict the cache cannot
        persist stays in memory and is counted in
        :attr:`BatchReport.persist_failures`.
    samples / carrier / timeout:
        Forwarded to every job.
    preprocess:
        Run the preprocessing pipeline on every cache miss before solving
        (see :class:`~repro.runtime.jobs.SolveJob`). The cache key is the
        instance's own, so warm re-runs skip the pipeline entirely.
    proof_dir:
        Directory (created if missing) receiving one DRAT proof file per
        executed job, named ``<job_id>.drat``; each outcome records its
        file in :attr:`~repro.runtime.jobs.SolveOutcome.proof`. Requires
        a classical (proof-capable) solver spec — rejected up front for
        the NBL engines and ``"portfolio"``. Cache hits reuse the proof
        path of the run that produced the verdict.
    """

    def __init__(
        self,
        solver: str = "portfolio",
        workers: int = 1,
        master_seed: int = 0,
        cache: Union[ResultCache, ShardedResultCache, None] = None,
        samples: int = 200_000,
        carrier: str = "uniform",
        timeout: Optional[float] = None,
        preprocess: bool = False,
        proof_dir: Optional[PathLike] = None,
    ) -> None:
        # Validate the spec up front: a typo'd solver name should fail the
        # batch immediately, not once per instance inside the workers.
        known = known_solver_specs()
        if solver not in known:
            raise RuntimeSubsystemError(
                f"unknown solver spec {solver!r}; available: {sorted(known)}"
            )
        if proof_dir is not None and solver in NO_PROOF_SPECS:
            raise RuntimeSubsystemError(
                f"proof_dir requires a classical solver spec; "
                f"{solver!r} cannot emit DRAT derivations"
            )
        self._solver = solver
        self._samples = samples
        self._carrier = carrier
        self._timeout = timeout
        self._preprocess = preprocess
        self._proof_dir = str(proof_dir) if proof_dir is not None else None
        if self._proof_dir is not None:
            os.makedirs(self._proof_dir, exist_ok=True)
        if workers <= 0:
            raise RuntimeSubsystemError(f"workers must be positive, got {workers}")
        self._workers = workers
        self._master_seed = master_seed
        self._cache = cache if cache is not None else ShardedResultCache()

    @property
    def cache(self) -> Union[ResultCache, ShardedResultCache]:
        """The result cache fronting the executor."""
        return self._cache

    def make_job(
        self, formula, label: str = "", assumptions: Sequence[int] = ()
    ) -> SolveJob:
        """Build one job carrying this runner's solver configuration."""
        job = SolveJob(
            formula=formula,
            label=label,
            solver=self._solver,
            samples=self._samples,
            carrier=self._carrier,
            timeout=self._timeout,
            assumptions=tuple(assumptions),
            preprocess=self._preprocess,
        )
        if self._proof_dir is not None:
            # Named after the (fingerprint-derived) job id once it exists;
            # in-flight deduplication means one file per distinct formula.
            job.proof = os.path.join(self._proof_dir, f"{job.job_id}.drat")
        return job

    def run(
        self, paths: Sequence[PathLike], pattern: str = "*.cnf"
    ) -> BatchReport:
        """Discover, parse and solve every instance under ``paths``."""
        files = discover_instances(paths, pattern)
        started = time.perf_counter()
        jobs: list[SolveJob] = []
        parse_failures: dict[str, SolveOutcome] = {}
        for path in files:
            label = str(path)
            try:
                formula = parse_dimacs_file(path)
            except (ReproError, OSError) as exc:
                parse_failures[label] = SolveOutcome(
                    job_id=f"parse-{label}",
                    status=ERROR,
                    solver=self._solver,
                    label=label,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            jobs.append(self.make_job(formula, label=label))
        report = self.run_jobs(jobs)
        if parse_failures:
            # Splice parse failures back at their sorted-path positions.
            by_label = {o.label: o for o in report.outcomes}
            by_label.update(parse_failures)
            report.outcomes = [by_label[str(path)] for path in files]
        report.wall_seconds = time.perf_counter() - started
        return report

    def run_jobs(self, jobs: Sequence[SolveJob]) -> BatchReport:
        """Solve prepared jobs: cache front, executor for the misses.

        Cache misses are additionally de-duplicated in flight: structurally
        identical formulas under the same assumptions *requesting the same
        solver* are solved once and the outcome is fanned out to the
        duplicates (marked ``from_cache`` when definitive). Jobs for the
        same formula under different solvers or different assumption sets
        still run separately. Each verdict is stored as soon as its job is
        collected, so a batch stopped partway keeps what it finished.
        """
        started = time.perf_counter()
        slots: list[Optional[SolveOutcome]] = [None] * len(jobs)
        misses: dict[tuple[str, str], list[tuple[int, SolveJob]]] = {}
        for index, job in enumerate(jobs):
            key = job.cache_key
            hit = self._cache.get(key)
            if hit is not None:
                hit.job_id = job.job_id
                hit.label = job.label
                # ``solver`` documents what this job requested; ``winner``
                # keeps recording who originally solved the formula.
                hit.solver = job.solver
                slots[index] = hit
            else:
                misses.setdefault((key, job.solver), []).append((index, job))
        representatives = [entries[0][1] for entries in misses.values()]
        persist_failures = 0

        def store(outcome: SolveOutcome) -> None:
            # Losing durability must not lose the batch: ``put`` keeps the
            # verdict in memory before it raises, as in the solve service.
            nonlocal persist_failures
            try:
                self._cache.put(outcome)
            except CachePersistError:
                persist_failures += 1

        executor = JobExecutor(workers=self._workers, master_seed=self._master_seed)
        try:
            solved = executor.run(representatives, on_outcome=store)
        finally:
            executor.shutdown()
        for entries, outcome in zip(misses.values(), solved):
            slots[entries[0][0]] = outcome
            for index, job in entries[1:]:
                # Only definitive answers count as served-from-cache; a
                # duplicated ERROR/UNKNOWN will be re-solved next run.
                slots[index] = outcome.copy(
                    job_id=job.job_id,
                    label=job.label,
                    from_cache=outcome.is_definitive,
                    elapsed_seconds=0.0,
                )
        report = BatchReport(
            outcomes=[o for o in slots if o is not None],
            wall_seconds=time.perf_counter() - started,
            workers=self._workers,
            cache_stats=self._cache.stats,
            persist_failures=persist_failures,
        )
        if _telemetry.active():
            for outcome in report.outcomes:
                _telemetry.emit(
                    "repro_batch_outcomes_total",
                    status=outcome.status,
                    from_cache="true" if outcome.from_cache else "false",
                )
            stats = report.cache_stats
            _telemetry.emit("repro_cache_size", stats.size)
            _telemetry.emit("repro_cache_max_size", stats.max_size)
            _telemetry.emit("repro_cache_hit_ratio", stats.hit_rate)
            if _telemetry.tracing_active():
                _telemetry.event(
                    "batch",
                    instances=report.total,
                    cache_hits=report.cache_hits,
                    wall_seconds=report.wall_seconds,
                    workers=report.workers,
                )
        return report
