"""Process-parallel job execution with deterministic seeding.

:func:`execute_job` is the single entry point that turns a
:class:`~repro.runtime.jobs.SolveJob` into a
:class:`~repro.runtime.jobs.SolveOutcome`; it is a module-level function so
``concurrent.futures.ProcessPoolExecutor`` can pickle it to workers.

Determinism contract: a job without an explicit seed gets one *derived*
from ``(master seed, job id, formula fingerprint)`` via SHA-256 — stable
across processes, Python hash randomisation and worker scheduling order —
so the same batch with the same master seed produces the same outcomes
regardless of the worker count.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import time
from typing import Callable, Optional, Sequence

from repro import faults as _faults
from repro.cnf.assignment import Assignment
from repro.exceptions import RuntimeSubsystemError
from repro.proofs.log import resolve_proof_log
from repro.runtime.jobs import (
    ERROR,
    NBL_SPECS,
    PORTFOLIO_SPEC,
    SolveJob,
    SolveOutcome,
    make_spec_solver,
    refusal_reason,
)
from repro.telemetry import instrument as _telemetry

#: Extra parent-side wall-clock grace (seconds) on top of a job's own
#: timeout before the pool gives up waiting on its worker.
_TIMEOUT_GRACE = 10.0


def derive_job_seed(master_seed: int, job_id: str, fingerprint: str) -> int:
    """Deterministic 63-bit per-job seed from the pool's master seed.

    Hash-based (SHA-256) rather than ``SeedSequence.spawn`` so the seed of a
    job depends only on its identity, not on how many jobs ran before it.
    """
    digest = hashlib.sha256(
        f"{master_seed}\x1f{job_id}\x1f{fingerprint}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _assignment_ints(assignment: Optional[Assignment]) -> Optional[tuple[int, ...]]:
    if assignment is None:
        return None
    return tuple(v if value else -v for v, value in assignment.items())


def _outcome(job: SolveJob, status: str, **fields) -> SolveOutcome:
    """An outcome of ``status`` carrying ``job``'s identity and ``fields``."""
    return SolveOutcome(
        job_id=job.job_id,
        status=status,
        solver=job.solver,
        label=job.label,
        fingerprint=job.fingerprint,
        assumptions=job.assumptions,
        **fields,
    )


def execute_job(job: SolveJob, master_seed: int = 0) -> SolveOutcome:
    """Run one job to completion and return its outcome.

    A job naming the default ``"portfolio"`` spec runs exactly as the job
    naming one selected solver would: the paper's exact NBL engine when
    its variable limit admits the input formula, CDCL otherwise. The
    outcome keeps ``solver="portfolio"``; ``winner`` names the selection.

    Never raises for solver-level failures — any exception (including
    non-library ones such as ``RecursionError``) becomes an ``"ERROR"``
    outcome so one bad instance cannot take down a batch.
    """
    requested = job.solver
    if requested == PORTFOLIO_SPEC:
        selected = "nbl-symbolic"
        if refusal_reason(selected, job.formula) is not None:
            selected = "cdcl"
        job = dataclasses.replace(job, solver=selected)
    seed = (
        job.seed
        if job.seed is not None
        else derive_job_seed(master_seed, job.job_id, job.fingerprint)
    )
    # Telemetry note: with workers > 1 this body runs inside a worker
    # process, whose tracer/registry are process-local and start disabled —
    # parallel batches then only record parent-side events. The serial
    # (in-process) pool path is fully observable.
    task_span = _telemetry.span("pool.task")
    started = time.perf_counter()
    pipeline = _runs_pipeline(job)
    with task_span:
        if task_span.recording:
            task_span.set(
                job_id=job.job_id,
                solver=job.solver,
                label=job.label,
                pipeline=pipeline,
            )
        try:
            # Chaos hook: `error` becomes an ERROR outcome below (a clean
            # worker failure), `kill` takes the whole worker process down
            # (the pool's abandoned-worker handling must recover), `delay`
            # stretches the solve. Inert without an installed fault plan.
            _faults.fire("pool.execute")
            if pipeline:
                outcome = _execute_preprocessed(job, seed)
            else:
                outcome = _execute_direct(job, seed, job)
        except Exception as exc:  # noqa: BLE001 — batch isolation boundary
            outcome = _outcome(job, ERROR, error=f"{type(exc).__name__}: {exc}")
        outcome.solver = requested
        outcome.elapsed_seconds = time.perf_counter() - started
        if task_span.recording:
            task_span.set(
                status=outcome.status,
                winner=outcome.winner,
                elapsed_seconds=outcome.elapsed_seconds,
            )
    if _telemetry.active():
        _telemetry.emit("repro_pool_tasks_total", status=outcome.status)
        _telemetry.emit("repro_pool_task_seconds", outcome.elapsed_seconds)
    return outcome


def _execute_direct(job: SolveJob, seed: int, identity: SolveJob) -> SolveOutcome:
    """Solve ``job`` and report the outcome under ``identity``.

    ``identity`` is ``job`` itself, or the parent of a preprocessed job's
    residual, so the residual's own formula is never fingerprinted.
    """
    refusal = refusal_reason(job.solver, job.formula)
    if refusal is not None:
        # Exponential-cost solvers would hang far past any timeout; fail
        # the job fast instead.
        return _outcome(identity, ERROR, error=f"{job.solver} refused: {refusal}")
    return _execute_solver(job, seed, identity)


def _assumption_values(assumptions: tuple[int, ...]) -> Optional[dict[int, bool]]:
    """Assumptions as ``variable -> value``; ``None`` when contradictory."""
    values: dict[int, bool] = {}
    for lit in assumptions:
        if values.get(abs(lit), lit > 0) != (lit > 0):
            return None
        values[abs(lit)] = lit > 0
    return values


def _contradictory_core(assumptions: tuple[int, ...]) -> tuple[int, ...]:
    """The first ``(lit, -lit)`` pair of a contradictory assumption tuple."""
    seen: set[int] = set()
    for lit in assumptions:
        if -lit in seen:
            return (-lit, lit)
        seen.add(lit)
    raise RuntimeSubsystemError("assumptions are not contradictory")


def _runs_pipeline(job: SolveJob) -> bool:
    """Whether ``job`` runs the preprocessing pipeline before its solver.

    A ``cdcl`` job without assumptions does not, even with
    ``preprocess=True``: CDCL search on the formula as given settles large
    easy inputs in a fraction of the pipeline's time, and on small hard
    ones elimination did not pay either (ROADMAP item 1 has the numbers).
    Kissat likewise searches before it eliminates. A ``cdcl`` job with
    assumptions keeps the pipeline: its refutation of the formula, with
    the assumption variables frozen, is what reports the empty core of a
    formula that is unsatisfiable whatever the assumptions.
    """
    if not job.preprocess:
        return False
    return job.solver != "cdcl" or bool(job.assumptions)


def _execute_preprocessed(job: SolveJob, seed: int) -> SolveOutcome:
    """Preprocess (assumption variables frozen), dispatch, reconstruct.

    The pipeline runs here, once per job, wherever the job executes. The
    outcome carries the job's own fingerprint and assumptions, so it is
    cached under :attr:`SolveJob.cache_key` like any direct solve and its
    model always belongs to the job's formula. Verdicts reached without
    running a solver at all carry ``winner="preprocess"``.
    ``job.timeout`` bounds the pipeline and the residual solve together.

    With ``job.proof`` the pipeline's elimination lines land in the file
    first (original numbering) and the residual solver writes through a
    translating view, so the file checks against the job's input formula.
    Failing cores from the residual solve are mapped back into the
    original numbering before they reach the outcome.
    """
    from repro.preprocess.pipeline import Preprocessor

    deadline = time.monotonic() + job.timeout if job.timeout else None
    proof = job.proof or ""
    values = _assumption_values(job.assumptions)
    log, owns_log = resolve_proof_log(job.proof)
    try:
        if values is None:
            # x and ~x assumed at once: unsatisfiable whatever the formula
            # says — there is no refutation of the formula to record.
            if log is not None:
                log.mark_incomplete("contradictory assumptions; no derivation")
            return _outcome(
                job,
                "UNSAT",
                winner="preprocess",
                verified=True,
                core=_contradictory_core(job.assumptions),
                proof=proof,
            )
        reduction = Preprocessor().preprocess(
            job.formula,
            frozen={abs(lit) for lit in job.assumptions},
            deadline=deadline,
            proof=log,
        )
        if reduction.status == "UNSAT":
            # The pipeline refuted the formula itself (assumption variables
            # are frozen, never assumed), so the core is empty.
            return _outcome(
                job,
                "UNSAT",
                winner="preprocess",
                verified=True,
                core=() if job.assumptions else None,
                proof=proof,
            )
        if reduction.status == "SAT":
            reduced_model = {
                reduction.variable_map[var]: value for var, value in values.items()
            }
            assignment = reduction.reconstruct(reduced_model)
            verified = job.formula.evaluate(assignment.as_dict())
            return _outcome(
                job,
                "SAT",
                winner="preprocess",
                assignment=_assignment_ints(assignment),
                verified=verified,
                proof=proof,
            )
        refusal = refusal_reason(job.solver, reduction.formula)
        if refusal is not None:
            return _outcome(
                job, ERROR, error=f"{job.solver} refused: {refusal}", proof=proof
            )
        timeout = job.timeout
        if deadline is not None:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                if log is not None:
                    log.mark_incomplete("timeout")
                return _outcome(job, "UNKNOWN", timed_out=True, proof=proof)
        reduced_job = SolveJob(
            formula=reduction.formula,
            job_id=job.job_id,
            label=job.label,
            solver=job.solver,
            samples=job.samples,
            carrier=job.carrier,
            timeout=timeout,
            assumptions=reduction.map_assumptions(job.assumptions),
            seed=seed,
        )
        inverse = {new: old for old, new in reduction.variable_map.items()}
        if log is not None:
            # Dispatch to the solver directly with the renaming view over
            # the shared log.
            outcome = _execute_solver(
                reduced_job, seed, job, proof_log=log.translated(inverse)
            )
        else:
            outcome = _execute_direct(reduced_job, seed, job)
    finally:
        if owns_log and log is not None:
            log.close()
    if outcome.core is not None:
        # The residual session reported the core in the reduced numbering;
        # assumption variables are frozen, so the inverse map covers them.
        outcome.core = tuple(
            (1 if lit > 0 else -1) * inverse[abs(lit)] for lit in outcome.core
        )
    if outcome.status == "SAT" and outcome.assignment is not None:
        assignment = reduction.reconstruct(
            {abs(lit): lit > 0 for lit in outcome.assignment}
        )
        model = assignment.as_dict()
        outcome.assignment = _assignment_ints(assignment)
        outcome.verified = job.formula.evaluate(model) and all(
            model.get(var) == value for var, value in values.items()
        )
    return outcome


def _execute_solver(
    job: SolveJob, seed: int, identity: SolveJob, proof_log=None
) -> SolveOutcome:
    solver = make_spec_solver(
        job.solver, seed=seed, samples=job.samples, carrier=job.carrier
    )
    if proof_log is not None:
        log, owns_log = proof_log, False
    else:
        log, owns_log = resolve_proof_log(job.proof)
    try:
        if job.assumptions:
            # Route through the solver's incremental session so the assumption
            # semantics (and CDCL's native assumption handling) match a live
            # IncrementalSession answering the same query.
            session = solver.make_session(base_formula=job.formula)
            if log is not None:
                session.set_proof_log(log)
            result = session.solve(job.assumptions, timeout=job.timeout)
            core = session.unsat_core()
        else:
            result = solver.solve(job.formula, timeout=job.timeout, proof=log)
            core = result.core
    finally:
        if owns_log and log is not None:
            log.close()
    verified = result.is_sat or (result.is_unsat and solver.complete)
    return _outcome(
        identity,
        result.status,
        winner=job.solver,
        assignment=_assignment_ints(result.assignment),
        verified=verified,
        samples_used=result.stats.evaluations if job.solver in NBL_SPECS else 0,
        timed_out=result.timed_out,
        core=core,
        proof=identity.proof or "",
    )


def _timeout_outcome(job: SolveJob) -> SolveOutcome:
    return _outcome(
        job,
        "UNKNOWN",
        timed_out=True,
        elapsed_seconds=job.timeout or 0.0,
        # The grace window also absorbs queue-wait time, so this can mean
        # "never started behind wedged workers", not only "ran too long".
        error="job did not finish within the timeout grace window "
        "(worker overran or queue starved)",
    )


def _infrastructure_outcome(job: SolveJob, exc: BaseException) -> SolveOutcome:
    return _outcome(job, ERROR, error=f"worker process died: {exc}")


class JobExecutor:
    """Long-lived submit/collect executor over one execution strategy.

    The one executor under both :class:`~repro.runtime.batch.BatchRunner`
    (batch semantics through :meth:`run`: submit a list, collect in
    order) and the :class:`~repro.service.SolveService` event loop
    (streaming semantics: submit as requests arrive, await each future).
    Three strategies:

    * ``workers == 1`` *inline* (the default): :meth:`submit` executes the
      job synchronously and returns an already-resolved future — the
      serial batch path, with zero thread or pickling overhead.
    * ``workers == 1, inline=False``: a single worker thread, so
      :meth:`submit` returns immediately — what an event loop needs.
    * ``workers > 1``: a process pool (``inline`` must be left off). A
      pool that lost a worker process (SIGKILL, OOM) refuses all later
      work, so :meth:`submit` replaces it with a fresh one.

    :meth:`submit` never raises for solver-level failures
    (:func:`execute_job` converts them to ``ERROR`` outcomes) and
    :meth:`collect` converts the remaining *infrastructure* failures —
    grace-window overruns, a died worker process — into outcomes too, so
    callers always receive one :class:`SolveOutcome` per job.

    Outcomes are identical for any worker count: parallelism never changes
    results, only wall-clock time.
    """

    def __init__(
        self,
        workers: int = 1,
        master_seed: int = 0,
        inline: Optional[bool] = None,
    ) -> None:
        if workers <= 0:
            raise RuntimeSubsystemError(f"workers must be positive, got {workers}")
        if inline and workers > 1:
            raise RuntimeSubsystemError(
                "inline execution is single-worker by definition"
            )
        self._workers = workers
        self._master_seed = master_seed
        self._inline = (workers == 1) if inline is None else bool(inline)
        self._abandoned = False
        self._pool: Optional[concurrent.futures.Executor] = None
        if not self._inline:
            if workers == 1:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-exec"
                )
            else:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers
                )

    @property
    def inline(self) -> bool:
        """``True`` when :meth:`submit` executes synchronously in-process."""
        return self._inline

    def submit(self, job: SolveJob) -> "concurrent.futures.Future[SolveOutcome]":
        """Queue one job; returns a future resolving to its outcome."""
        if self._pool is None:
            future: concurrent.futures.Future = concurrent.futures.Future()
            future.set_result(execute_job(job, self._master_seed))
            return future
        if self._workers > 1 and self._lost_worker():
            self._replace_pool()
        try:
            return self._pool.submit(execute_job, job, self._master_seed)
        except concurrent.futures.BrokenExecutor:
            self._replace_pool()
            return self._pool.submit(execute_job, job, self._master_seed)

    def _lost_worker(self) -> bool:
        """Whether a worker process of the pool has exited.

        Polls the process sentinels, which become ready the moment a
        worker dies, before the pool's own manager thread marks it broken:
        a job submitted in between would fail with the dead worker.
        """
        import multiprocessing.connection

        sentinels = [process.sentinel for process in self._processes().values()]
        return bool(multiprocessing.connection.wait(sentinels, timeout=0))

    def _processes(self) -> dict:
        """The process pool's live worker table (empty for other strategies)."""
        return getattr(self._pool, "_processes", None) or {}

    def _replace_pool(self) -> None:
        """Swap a broken process pool for a fresh one of the same size.

        The old pool's manager fails every job still pending on it with
        ``BrokenProcessPool``, which :meth:`collect` and the service turn
        into ``ERROR`` outcomes.
        """
        self._pool.shutdown(wait=False)
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self._workers
        )

    def run(
        self,
        jobs: Sequence[SolveJob],
        on_outcome: Optional[Callable[[SolveOutcome], None]] = None,
    ) -> list[SolveOutcome]:
        """Execute every job and return outcomes in job order.

        ``on_outcome`` is called once per job, in job order, as soon as
        that job is collected. Unless inline, a job with a ``timeout`` is
        given up (a timed-out ``UNKNOWN``) once it overruns that timeout
        plus a parent-side grace window; jobs without one are waited on
        indefinitely.
        """
        if self._pool is None:
            # Serial fast path: submit resolves synchronously, so each job
            # runs when the loop below reaches it, strictly in order.
            futures = map(self.submit, jobs)
        else:
            futures = [self.submit(job) for job in jobs]
        # Worker processes keep their telemetry to themselves; the parent
        # records their tasks as it collects them.
        remote = self._workers > 1 and _telemetry.active()
        pending = len(jobs)
        if remote:
            _telemetry.emit("repro_pool_queue_depth", pending)
        outcomes = []
        for job, future in zip(jobs, futures):
            grace = job.timeout + _TIMEOUT_GRACE if job.timeout is not None else None
            outcome = self.collect(future, job, grace=grace)
            if on_outcome is not None:
                on_outcome(outcome)
            outcomes.append(outcome)
            pending -= 1
            if remote:
                _telemetry.emit("repro_pool_queue_depth", pending)
                _telemetry.emit("repro_pool_tasks_total", status=outcome.status)
                _telemetry.emit("repro_pool_task_seconds", outcome.elapsed_seconds)
        return outcomes

    def collect(
        self,
        future: "concurrent.futures.Future[SolveOutcome]",
        job: SolveJob,
        grace: Optional[float] = None,
    ) -> SolveOutcome:
        """Wait for a submitted job, translating infrastructure failures.

        ``grace`` bounds the wait (seconds); overrunning it cancels the
        future, marks the executor's workers as abandoned (so
        :meth:`shutdown` kills instead of joining them) and returns a
        timed-out ``UNKNOWN`` outcome. A worker that died mid-job comes
        back as an ``ERROR`` outcome.
        """
        try:
            return future.result(timeout=grace)
        except concurrent.futures.TimeoutError:
            # The worker overran even the parent-side grace window (e.g.
            # it is stuck outside a cooperative checkpoint). Record the
            # timeout; the stuck worker is abandoned at shutdown instead
            # of being waited on.
            future.cancel()
            self._abandoned = True
            return _timeout_outcome(job)
        except concurrent.futures.CancelledError as exc:
            return _infrastructure_outcome(job, exc)
        except Exception as exc:  # noqa: BLE001 — BrokenProcessPool et al.
            return _infrastructure_outcome(job, exc)

    def shutdown(self, wait: bool = True) -> None:
        """Release the executor's workers (kill them when abandoned).

        A stuck worker must not block shutdown (or the executor's atexit
        join): once :meth:`collect` abandoned one, the join is skipped
        and worker processes are terminated outright.
        """
        if self._pool is None:
            return
        # Taken before the shutdown, which drops the pool's process table.
        processes = list(self._processes().values())
        self._pool.shutdown(
            wait=wait and not self._abandoned, cancel_futures=True
        )
        if self._abandoned:
            for process in processes:
                process.terminate()
