"""The always-on asyncio solve server.

:class:`SolveService` keeps the full solving stack — preprocessing,
solvers, proofs — resident and answers a stream of requests
with three serving guarantees the one-shot batch runner cannot give:

* **In-flight deduplication.** Concurrent requests for a structurally
  identical formula under the same assumptions (and the same solver
  spec) share *one* underlying solve; late arrivals await the first
  request's future instead of re-submitting.
* **Admission control.** At most ``max_inflight`` solves run in the
  executor at once and at most ``queue_limit`` requests may wait for a
  slot; anything beyond is rejected immediately with a ``429`` response
  instead of silently growing an unbounded queue.
* **Durable results.** Verdicts land in a
  :class:`~repro.runtime.shards.ShardedResultCache`: appended to a
  per-shard write-ahead log *before* the response is written, so every
  acknowledged verdict survives a crash and warms every later request.

Execution runs on :class:`repro.runtime.pool.JobExecutor` — the same
submit/collect core under :class:`~repro.runtime.batch.BatchRunner` —
so a formula answers identically whether it arrived via ``repro batch``
or over the wire.

Two transports: :meth:`SolveService.serve_tcp` (a socket server, one
connection per client, requests pipelined) and
:meth:`SolveService.serve_stdio` (newline-delimited JSON over
stdin/stdout, for supervision by a parent process). The wire format is
:mod:`repro.service.protocol`; operational notes live in
``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import json
import re
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import faults as _faults
from repro.exceptions import CachePersistError, RuntimeSubsystemError
from repro.runtime.jobs import ERROR, SolveJob, SolveOutcome, known_solver_specs
from repro.runtime.locks import DEFAULT_LEASE_TIMEOUT
from repro.runtime.pool import JobExecutor
from repro.runtime.shards import ShardedResultCache
from repro.service.protocol import (
    BAD_REQUEST,
    FAILED,
    OK,
    PROTOCOL_VERSION,
    REJECTED,
    TOO_LARGE,
    UNAVAILABLE,
    JobDefaults,
    ProtocolError,
    build_job,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from repro.telemetry import instrument as _telemetry

#: Longest request line served, in bytes, not counting its newline: 64 KiB,
#: asyncio's default stream limit, which bounded TCP lines before. On either
#: transport a longer line is read to its end, dropped and answered with one
#: ``413``; the connection stays open.
MAX_REQUEST_BYTES = 64 * 1024


@dataclass
class ServiceConfig:
    """Everything a :class:`SolveService` needs to start serving.

    Attributes
    ----------
    solver / samples / carrier / timeout / preprocess:
        Per-job defaults, overridable per request (see
        :class:`~repro.service.protocol.JobDefaults`).
    workers:
        Executor worker count (1 = a single worker thread; more = a
        process pool). The event loop never blocks on a solve either way.
    master_seed:
        Root of the deterministic per-job seed derivation (identical to
        the batch runner's).
    cache_dir:
        Directory for the sharded persistent cache; ``None`` serves from
        memory only.
    shards / shard_size / compact_threshold / fsync:
        Forwarded to :class:`~repro.runtime.shards.ShardedResultCache`
        (``shards=None`` adopts the cache directory's persisted count).
    max_inflight:
        Most solves submitted to the executor at once.
    queue_limit:
        Most requests allowed to wait for an executor slot; beyond this,
        new work is rejected with a ``429`` response.
    drain_timeout:
        Seconds a graceful shutdown (a ``shutdown`` request, ``SIGTERM``
        or stdin EOF) waits for in-flight requests. Work still running
        past the budget is cancelled and answered with a clean ``503``
        (safe to resend to another server); ``None`` waits forever.
    lease_timeout:
        Cross-process shard-lease staleness threshold (seconds) —
        forwarded to :class:`~repro.runtime.shards.ShardedResultCache`
        so several servers can share ``cache_dir``.
    proof_dir:
        When set, classical solves record a DRAT proof under this
        directory (named ``<job_id>.drat``) and outcomes carry the path —
        the service-side twin of ``repro batch --proof-dir``.
    """

    solver: str = "portfolio"
    workers: int = 1
    master_seed: int = 0
    samples: int = 200_000
    carrier: str = "uniform"
    timeout: Optional[float] = None
    preprocess: bool = False
    cache_dir: Optional[str] = None
    shards: Optional[int] = None
    shard_size: int = 4096
    compact_threshold: int = 1024
    fsync: bool = False
    max_inflight: int = 8
    queue_limit: int = 64
    drain_timeout: Optional[float] = None
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    proof_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver not in known_solver_specs():
            raise RuntimeSubsystemError(
                f"unknown solver spec {self.solver!r}; "
                f"available: {sorted(known_solver_specs())}"
            )
        if self.workers <= 0:
            raise RuntimeSubsystemError(
                f"workers must be positive, got {self.workers}"
            )
        if self.max_inflight <= 0:
            raise RuntimeSubsystemError(
                f"max_inflight must be positive, got {self.max_inflight}"
            )
        if self.queue_limit < 0:
            raise RuntimeSubsystemError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.drain_timeout is not None and self.drain_timeout < 0:
            raise RuntimeSubsystemError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}"
            )
        if self.lease_timeout <= 0:
            raise RuntimeSubsystemError(
                f"lease_timeout must be positive, got {self.lease_timeout}"
            )

    def job_defaults(self) -> JobDefaults:
        """The request-facing defaults bundle for :func:`build_job`."""
        return JobDefaults(
            solver=self.solver,
            samples=self.samples,
            carrier=self.carrier,
            timeout=self.timeout,
            preprocess=self.preprocess,
            proof_dir=self.proof_dir,
        )


@dataclass
class ServiceStats:
    """Lifetime request counters of one :class:`SolveService`.

    Mutated only from the service's event loop (single-thread ownership;
    executor work happens in workers, not here), so reads taken on that
    loop — the ``stats`` operation — are always consistent.
    """

    requests: int = 0
    solves: int = 0
    executed: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    rejected: int = 0
    bad_requests: int = 0
    failures: int = 0
    persist_failures: int = 0
    drained: int = 0
    responses: dict = field(default_factory=dict)

    def count_response(self, code: int) -> None:
        """Tally one response by its wire code."""
        key = str(code)
        self.responses[key] = self.responses.get(key, 0) + 1

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (the ``stats`` response payload)."""
        return {
            "requests": self.requests,
            "solves": self.solves,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "rejected": self.rejected,
            "bad_requests": self.bad_requests,
            "failures": self.failures,
            "persist_failures": self.persist_failures,
            "drained": self.drained,
            "responses": dict(self.responses),
        }


class SolveService:
    """The solve server: parse, dedup, admit, execute, persist, respond.

    Parameters
    ----------
    config:
        The :class:`ServiceConfig`; defaults serve the ``"portfolio"``
        spec (the exact NBL engine up to 20 variables, CDCL above) from
        an in-memory cache with one worker thread.
    cache:
        An explicit :class:`ShardedResultCache` (tests inject one);
        ``None`` builds it from the config.
    executor:
        An explicit :class:`~repro.runtime.pool.JobExecutor`; ``None``
        builds a non-blocking one from the config. An injected executor
        is not shut down by the service.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        cache: Optional[ShardedResultCache] = None,
        executor: Optional[JobExecutor] = None,
    ) -> None:
        self._config = config if config is not None else ServiceConfig()
        self._defaults = self._config.job_defaults()
        if cache is not None:
            self._cache = cache
        else:
            self._cache = ShardedResultCache(
                directory=self._config.cache_dir,
                shards=self._config.shards,
                shard_size=self._config.shard_size,
                compact_threshold=self._config.compact_threshold,
                fsync=self._config.fsync,
                lease_timeout=self._config.lease_timeout,
            )
        self._executor = executor
        self._owns_executor = executor is None
        self._stats = ServiceStats()
        self._degraded = False
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._waiting = 0
        self._running = 0
        self._sema: Optional[asyncio.Semaphore] = None
        self._closing: Optional[asyncio.Event] = None
        self._tasks: set = set()
        self._ids = itertools.count(1)
        self.address: Optional[tuple[str, int]] = None

    @property
    def config(self) -> ServiceConfig:
        """The serving configuration."""
        return self._config

    @property
    def cache(self) -> ShardedResultCache:
        """The sharded result cache fronting the executor."""
        return self._cache

    @property
    def stats(self) -> ServiceStats:
        """Lifetime request counters."""
        return self._stats

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for an executor slot."""
        return self._waiting

    @property
    def inflight(self) -> int:
        """Distinct solves currently running in the executor."""
        return self._running

    @property
    def degraded(self) -> bool:
        """``True`` while verdicts are served without durable persistence.

        Set when a shard WAL append fails (disk full, IO error, lost
        lease); cleared automatically by the next successful persist.
        A degraded server keeps answering correctly — the flag tells
        operators that a crash *right now* could forget recent verdicts
        (until a later compaction heals them from memory).
        """
        return self._degraded

    # -- event-loop plumbing ---------------------------------------------------
    def _ensure_loop_state(self) -> None:
        if self._sema is None:
            self._sema = asyncio.Semaphore(self._config.max_inflight)
        if self._closing is None:
            self._closing = asyncio.Event()
        if self._executor is None:
            self._executor = JobExecutor(
                workers=self._config.workers,
                master_seed=self._config.master_seed,
                inline=False,
            )

    def _next_id(self) -> str:
        return f"auto-{next(self._ids)}"

    def _report_load(self) -> None:
        if _telemetry.active():
            _telemetry.emit("repro_service_queue_depth", self._waiting)
            _telemetry.emit("repro_service_inflight", self._running)

    # -- request handling ------------------------------------------------------
    async def handle_line(self, line: str) -> dict:
        """One raw request line -> the response dict (never raises)."""
        self._ensure_loop_state()
        started = time.perf_counter()
        request_id: Optional[str] = None
        op = "invalid"
        try:
            payload = parse_request(line)
            op = payload["op"]
            request_id = payload.get("id") or self._next_id()
            response = await self._dispatch(op, payload, request_id)
        except ProtocolError as exc:
            self._stats.bad_requests += 1
            response = error_response(request_id, exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 — the service must keep serving
            self._stats.failures += 1
            response = error_response(
                request_id, FAILED, f"{type(exc).__name__}: {exc}"
            )
        self._account(op, response["code"], time.perf_counter() - started)
        return response

    def _too_large_response(self, head: bytes) -> dict:
        """The ``413`` for a request line over :data:`MAX_REQUEST_BYTES`.

        The line was dropped unparsed; the response carries the request's
        id when ``head``, the line's first bytes, names it.
        """
        self._stats.bad_requests += 1
        self._account("invalid", TOO_LARGE, 0.0)
        return error_response(
            _peek_request_id(head),
            TOO_LARGE,
            f"request line longer than {MAX_REQUEST_BYTES} bytes; "
            "the line was discarded",
        )

    def _account(self, op: str, code: int, elapsed: float) -> None:
        self._stats.requests += 1
        self._stats.count_response(code)
        if _telemetry.active():
            if _telemetry.tracing_active():
                _telemetry.event(
                    "service.request", op=op, code=code, elapsed_seconds=elapsed
                )
            _telemetry.emit("repro_service_requests_total", op=op, code=code)
            _telemetry.emit("repro_service_request_seconds", elapsed, op=op)

    async def _dispatch(self, op: str, payload: dict, request_id: str) -> dict:
        if op == "ping":
            return {"id": request_id, "code": OK, "op": "ping", "ok": True}
        if op == "stats":
            return self._stats_response(request_id)
        if op == "shutdown":
            return {"id": request_id, "code": OK, "op": "shutdown", "ok": True}
        return await self._handle_solve(payload, request_id)

    def _stats_response(self, request_id: str) -> dict:
        stats = self._cache.stats
        if _telemetry.active():
            for shard, size in enumerate(self._cache.shard_sizes):
                _telemetry.emit("repro_cache_shard_entries", size, shard=shard)
        return {
            "id": request_id,
            "code": OK,
            "op": "stats",
            "stats": {
                "protocol_version": PROTOCOL_VERSION,
                "service": self._stats.to_dict(),
                "queue_depth": self._waiting,
                "inflight": self._running,
                "workers": self._config.workers,
                "max_inflight": self._config.max_inflight,
                "queue_limit": self._config.queue_limit,
                "degraded": self._degraded,
                "cache": {
                    "entries": stats.size,
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "shards": self._cache.num_shards,
                    "shard_sizes": self._cache.shard_sizes,
                    "directory": self._cache.directory,
                    "replayed_records": self._cache.replayed_records,
                    "torn_records": self._cache.torn_records,
                    "lock_takeovers": self._cache.lock_takeovers,
                    "failed_compactions": self._cache.failed_compactions,
                },
            },
        }

    def _store(self, outcome: SolveOutcome) -> None:
        """Persist a definitive outcome under its own cache key.

        Persistence failures degrade instead of failing the request:
        the entry is already in memory (``put`` inserts before raising
        :class:`~repro.exceptions.CachePersistError`), the service flips
        :attr:`degraded` and the verdict is still acknowledged — losing
        durability must never lose availability. The flag clears on the
        next successful persist.
        """
        try:
            persisted = self._cache.put(outcome)
        except CachePersistError:
            self._stats.persist_failures += 1
            self._degraded = True
            if _telemetry.active():
                _telemetry.emit("repro_service_persist_failures_total")
                _telemetry.emit("repro_service_degraded", 1)
            if _telemetry.tracing_active():
                _telemetry.event("service.degraded", active=True)
            return
        if persisted and self._degraded:
            self._degraded = False
            if _telemetry.active():
                _telemetry.emit("repro_service_degraded", 0)
            if _telemetry.tracing_active():
                _telemetry.event("service.degraded", active=False)

    async def _handle_solve(self, payload: dict, request_id: str) -> dict:
        self._stats.solves += 1
        job = build_job(payload, self._defaults)
        cache_key = job.cache_key

        hit = self._cache.get(cache_key)
        if hit is not None:
            self._stats.cache_hits += 1
            # ``solver`` documents what this request asked for; ``winner``
            # keeps recording who originally produced the verdict.
            hit.job_id = job.job_id
            hit.label = job.label
            hit.solver = job.solver
            return ok_response(request_id, hit, from_cache=True)

        dedup_key = (cache_key, job.solver, job.preprocess)
        shared = self._inflight.get(dedup_key)
        if shared is not None:
            self._stats.dedup_hits += 1
            if _telemetry.active():
                if _telemetry.tracing_active():
                    _telemetry.event("service.dedup", key=cache_key)
                _telemetry.emit("repro_service_dedup_hits_total")
            # shield(): a cancelled waiter must not cancel the shared solve.
            outcome = await asyncio.shield(shared)
            duplicate = outcome.copy(
                job_id=job.job_id,
                label=job.label,
                from_cache=outcome.is_definitive,
                elapsed_seconds=0.0,
            )
            return ok_response(request_id, duplicate, deduped=True)

        # Reject only work that would have to *wait* in a full queue; a
        # free executor slot always admits (so queue_limit=0 still serves
        # up to max_inflight concurrent solves).
        if (
            self._running >= self._config.max_inflight
            and self._waiting >= self._config.queue_limit
        ):
            self._stats.rejected += 1
            if _telemetry.active():
                _telemetry.emit("repro_service_rejections_total")
            return error_response(
                request_id,
                REJECTED,
                f"queue full ({self._waiting} waiting, "
                f"{self._running} in flight); retry later",
            )

        loop = asyncio.get_running_loop()
        shared = loop.create_future()
        self._inflight[dedup_key] = shared
        try:
            outcome = await self._execute(job)
            self._stats.executed += 1
            self._store(outcome)
            if not shared.done():
                shared.set_result(outcome)
            return ok_response(request_id, outcome)
        except BaseException as exc:
            # Resolve waiters with an ERROR outcome so a dedup'd request
            # never hangs on its representative's failure.
            if not shared.done():
                shared.set_result(
                    SolveOutcome(
                        job_id=job.job_id,
                        status=ERROR,
                        solver=job.solver,
                        label=job.label,
                        fingerprint=job.fingerprint,
                        assumptions=job.assumptions,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
            raise
        finally:
            self._inflight.pop(dedup_key, None)

    async def _execute(self, job: SolveJob) -> SolveOutcome:
        """Run one representative job through the executor (slot-gated)."""
        self._waiting += 1
        self._report_load()
        try:
            await self._sema.acquire()
        finally:
            self._waiting -= 1
        self._running += 1
        self._report_load()
        try:
            future = self._executor.submit(job)
            try:
                return await asyncio.wrap_future(future)
            except concurrent.futures.BrokenExecutor:
                # The worker process died under this job. Answer with the
                # executor's ERROR outcome, which is never cached; the
                # next submit replaces the broken pool.
                return self._executor.collect(future, job)
        finally:
            self._sema.release()
            self._running -= 1
            self._report_load()

    # -- transports ------------------------------------------------------------
    async def _serve_line(self, raw: bytes, respond, oversized: bool = False) -> None:
        if oversized:
            await respond(self._too_large_response(raw))
            return
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            return
        try:
            response = await self.handle_line(line)
        except asyncio.CancelledError:
            # The drain budget expired mid-request. Abandoning silently
            # would strand the client on a request that will never be
            # answered — send a clean 503 instead (shielded: this write
            # must survive the very cancellation that triggered it).
            self._stats.drained += 1
            self._stats.count_response(UNAVAILABLE)
            response = error_response(
                _peek_request_id(raw),
                UNAVAILABLE,
                "server shutting down before the request finished; "
                "safe to resend",
            )
            try:
                await asyncio.shield(respond(response))
            except (ConnectionError, OSError):
                pass  # client already gone; nothing left to tell it
            return
        await respond(response)
        if response.get("op") == "shutdown" and response["code"] == OK:
            self._closing.set()

    def _track(self, task: "asyncio.Task") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _drain(self, timeout: Optional[float] = None) -> None:
        """Await in-flight request tasks; cancel stragglers past ``timeout``.

        Cancelled tasks answer their clients with ``503`` (see
        :meth:`_serve_line`) — a bounded shutdown never leaves a request
        hanging with no response at all.
        """
        if timeout is not None:
            deadline = asyncio.get_running_loop().time() + timeout
        while self._tasks:
            pending = list(self._tasks)
            if timeout is None:
                await asyncio.gather(*pending, return_exceptions=True)
                continue
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining > 0:
                await asyncio.wait(pending, timeout=remaining)
                remaining = deadline - asyncio.get_running_loop().time()
            still_running = [task for task in pending if not task.done()]
            if still_running and remaining <= 0:
                for task in still_running:
                    task.cancel()
                await asyncio.gather(*still_running, return_exceptions=True)

    def _install_sigterm(self, loop) -> bool:
        """Route ``SIGTERM`` to a graceful drain; ``False`` when unsupported.

        Unsupported means a non-main thread or a platform without signal
        handler support in the loop — serving proceeds without it.
        """
        try:
            loop.add_signal_handler(signal.SIGTERM, self._closing.set)
        except (NotImplementedError, RuntimeError, ValueError, OSError):
            return False
        return True

    def _remove_sigterm(self, loop) -> None:
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError, ValueError, OSError):
            pass

    def _finalize(self) -> None:
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self._cache.close()

    async def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: Optional[Callable[[str, int], None]] = None,
    ) -> int:
        """Serve over a TCP socket until a ``shutdown`` request arrives.

        ``port=0`` binds an ephemeral port; the bound address lands in
        :attr:`address` and is passed to the ``ready`` callback (the CLI
        prints it so clients can connect). Returns the process exit code
        (0 on clean shutdown).
        """
        self._ensure_loop_state()
        loop = asyncio.get_running_loop()
        sigterm = self._install_sigterm(loop)
        writers: set = set()
        conn_tasks: set = set()

        async def on_connection(reader, writer):
            conn_tasks.add(asyncio.current_task())
            writers.add(writer)
            write_lock = asyncio.Lock()

            async def respond(message: dict) -> None:
                rule = _faults.fire("server.response")
                if rule is not None and rule.kind == "drop":
                    # Injected connection drop: the response vanishes on
                    # the wire — the client's retry layer must recover.
                    writer.transport.abort()
                    return
                async with write_lock:
                    writer.write(encode_message(message).encode("utf-8"))
                    await writer.drain()

            try:
                while not self._closing.is_set():
                    raw, oversized = await _read_request(reader)
                    if not raw:
                        break
                    task = asyncio.ensure_future(
                        self._serve_line(raw, respond, oversized)
                    )
                    self._track(task)
                # Finish this connection's outstanding responses before
                # closing the socket under the client. The drain budget
                # (which *cancels* stragglers) applies only when the
                # whole server is shutting down — a single client
                # disconnecting must never 503 other clients' work.
                await self._drain(
                    self._config.drain_timeout
                    if self._closing.is_set()
                    else None
                )
            finally:
                writers.discard(writer)
                try:
                    writer.close()
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                conn_tasks.discard(asyncio.current_task())

        server = await asyncio.start_server(
            on_connection,
            host=host,
            port=port,
            limit=MAX_REQUEST_BYTES,
        )
        bound = server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        if ready is not None:
            ready(bound[0], bound[1])
        try:
            await self._closing.wait()
            # Graceful shutdown: stop accepting, finish (or 503) what is
            # in flight, then compact and close the cache in _finalize.
            server.close()
            await server.wait_closed()
            await self._drain(self._config.drain_timeout)
            for writer in list(writers):
                try:
                    writer.close()
                except (ConnectionError, OSError):
                    pass
            # Let the per-connection tasks run to completion before the
            # event loop goes away: cancelling them at loop teardown makes
            # asyncio's stream protocol log a spurious CancelledError.
            if conn_tasks:
                await asyncio.wait(set(conn_tasks), timeout=2.0)
        finally:
            if sigterm:
                self._remove_sigterm(loop)
            self._finalize()
        return 0

    async def serve_stdio(self, stdin=None, stdout=None) -> int:
        """Serve newline-delimited JSON over stdin/stdout until EOF/shutdown.

        The pipe mode: a parent process writes requests to our stdin and
        reads responses from our stdout (responses may interleave with
        request order; match by ``id``). EOF on stdin drains in-flight
        work, compacts the cache and exits cleanly. Returns the exit code.
        """
        self._ensure_loop_state()
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        loop = asyncio.get_running_loop()
        sigterm = self._install_sigterm(loop)
        reader, pump = await _stdin_reader(loop, stdin)
        write_lock = asyncio.Lock()

        async def respond(message: dict) -> None:
            rule = _faults.fire("server.response")
            if rule is not None and rule.kind == "drop":
                return  # injected loss: the response never reaches stdout
            async with write_lock:
                stdout.write(encode_message(message))
                stdout.flush()

        try:
            closing_wait = asyncio.ensure_future(self._closing.wait())
            while not self._closing.is_set():
                read = asyncio.ensure_future(_read_request(reader))
                done, _ = await asyncio.wait(
                    {read, closing_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if read not in done:
                    read.cancel()
                    break
                raw, oversized = read.result()
                if not raw:
                    break
                self._track(
                    asyncio.ensure_future(self._serve_line(raw, respond, oversized))
                )
            closing_wait.cancel()
            await self._drain(self._config.drain_timeout)
        finally:
            if pump is not None:
                pump.cancel()
            if sigterm:
                self._remove_sigterm(loop)
            self._finalize()
        return 0

    def run_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: Optional[Callable[[str, int], None]] = None,
    ) -> int:
        """Blocking wrapper: run :meth:`serve_tcp` on a fresh event loop."""
        return asyncio.run(self.serve_tcp(host=host, port=port, ready=ready))

    def run_stdio(self, stdin=None, stdout=None) -> int:
        """Blocking wrapper: run :meth:`serve_stdio` on a fresh event loop."""
        return asyncio.run(self.serve_stdio(stdin=stdin, stdout=stdout))


#: A string ``"id"`` field. Inside a JSON string every quote is escaped
#: and a value is never followed by a colon, so in a request (one flat
#: object) this matches only the ``id`` key.
_ID_FIELD = re.compile(rb'"id"\s*:\s*("(?:[^"\\]|\\.)*")')


def _peek_request_id(raw: bytes) -> Optional[str]:
    """Best-effort request id from a raw, possibly truncated, request line
    (for a 503 on a dying task or a 413 on an oversized line)."""
    match = _ID_FIELD.search(raw)
    if match is None:
        return None
    try:
        return json.loads(match.group(1))
    except ValueError:
        return None


async def _read_request(reader: asyncio.StreamReader) -> tuple[bytes, bool]:
    """The next request line from ``reader`` and whether it was oversized.

    A line longer than the reader's limit is read to its end and dropped;
    its first bytes (more than the limit) come back with ``True``, and the
    stream stays in step with the client. ``b""`` means EOF.
    """
    try:
        return await reader.readuntil(b"\n"), False
    except asyncio.IncompleteReadError as exc:
        return exc.partial, False
    except asyncio.LimitOverrunError as exc:
        head = await reader.readexactly(exc.consumed)
    while True:
        try:
            await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            pass
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            continue
        return head, True


async def _stdin_reader(
    loop, stdin
) -> tuple[asyncio.StreamReader, Optional[asyncio.Task]]:
    """A :class:`asyncio.StreamReader` over ``stdin``, pipe or not, with
    the :data:`MAX_REQUEST_BYTES` line limit (read it with
    :func:`_read_request`), and the task that fills it, if any.

    Pipes are read by the event loop directly; anything it cannot poll (a
    regular file, a PTY on some platforms) is read in chunks on the
    default executor's threads by a pump task that feeds the reader.
    """
    reader = asyncio.StreamReader(limit=MAX_REQUEST_BYTES)
    try:
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), stdin
        )
        return reader, None
    except (ValueError, OSError, NotImplementedError):
        binary = getattr(stdin, "buffer", stdin)
        read = getattr(binary, "read1", binary.read)

    async def pump() -> None:
        try:
            while True:
                chunk = await loop.run_in_executor(None, read, MAX_REQUEST_BYTES)
                if not chunk:
                    break
                reader.feed_data(chunk)
        except Exception as exc:  # noqa: BLE001 — the reader raises it
            reader.set_exception(exc)
            return
        reader.feed_eof()

    return reader, asyncio.ensure_future(pump())
