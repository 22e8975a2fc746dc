"""Tests for service fault tolerance: degradation, drain, retry, transports.

Covers the failure contract end to end: persist failures degrade to
serve-without-persist (never a 500), bounded shutdown answers stragglers
with a clean 503, SIGTERM drains gracefully, abrupt stdio EOF exits
cleanly, concurrent TCP clients interleave safely, and the retrying
client rides out dropped connections and 429/503 backpressure.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import faults, telemetry
from repro.exceptions import ServiceError
from repro.faults import FaultPlan
from repro.runtime.jobs import SolveOutcome
from repro.runtime.pool import JobExecutor
from repro.runtime.shards import ShardedResultCache
from repro.service import (
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    SolveService,
)
from repro.service.protocol import OK, UNAVAILABLE

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)

DIMACS = "p cnf 2 2\n1 2 0\n-1 0\n"
DIMACS_B = "p cnf 2 1\n1 0\n"


@pytest.fixture(autouse=True)
def _isolated_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


class InstantExecutor:
    """Returns a definitive SAT outcome for every job, immediately."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self._threads = concurrent.futures.ThreadPoolExecutor(max_workers=8)

    def submit(self, job):
        return self._threads.submit(self._run, job)

    def _run(self, job) -> SolveOutcome:
        assert self.gate.wait(timeout=30), "test gate never opened"
        return SolveOutcome(
            job_id=job.job_id,
            status="SAT",
            solver=job.solver,
            label=job.label,
            fingerprint=job.fingerprint,
            assumptions=job.assumptions,
            winner="fake",
            assignment=(1,),
            verified=True,
        )

    def shutdown(self, wait: bool = True) -> None:
        self.gate.set()
        self._threads.shutdown(wait=False)


def _solve_line(request_id: str, dimacs: str = DIMACS) -> str:
    return json.dumps({"op": "solve", "id": request_id, "dimacs": dimacs})


class TestGracefulDegradation:
    def test_persist_failure_still_serves_200(self, tmp_path):
        faults.install_plan(
            FaultPlan([dict(point="shards.wal.append", kind="error", times=0)])
        )
        service = SolveService(
            ServiceConfig(),
            cache=ShardedResultCache(directory=str(tmp_path / "c"), shards=1),
            executor=InstantExecutor(),
        )

        async def run():
            solved = await service.handle_line(_solve_line("s1"))
            stats = await service.handle_line('{"op": "stats", "id": "st"}')
            return solved, stats

        solved, stats = asyncio.run(run())
        assert solved["code"] == OK, "persist failure must not fail the request"
        assert solved["status"] == "SAT"
        assert service.degraded
        assert stats["stats"]["degraded"] is True
        assert stats["stats"]["service"]["persist_failures"] >= 1
        assert service.stats.failures == 0  # degraded, not failed

    def test_persist_failure_metric_counts_every_failed_put(self, tmp_path):
        # A preprocessed verdict is stored once, under the request's own
        # key, so one failing request counts exactly one persist failure.
        faults.install_plan(
            FaultPlan([dict(point="shards.wal.append", kind="error", times=0)])
        )
        previous = telemetry.get_metrics()
        registry = telemetry.enable_metrics(telemetry.MetricsRegistry())
        executor = JobExecutor(workers=1, inline=False)
        service = SolveService(
            ServiceConfig(),
            cache=ShardedResultCache(directory=str(tmp_path / "c"), shards=1),
            executor=executor,
        )
        line = json.dumps(
            {
                "op": "solve",
                "id": "p1",
                "dimacs": "p cnf 3 3\n1 2 0\n-1 0\n2 3 0\n",
                "preprocess": True,
            }
        )
        try:
            response = asyncio.run(service.handle_line(line))
        finally:
            telemetry.enable_metrics(previous)
            telemetry.disable_metrics()
            executor.shutdown()
        assert response["code"] == OK
        assert service.stats.persist_failures == 1
        failures = registry.get("repro_service_persist_failures_total")
        assert failures.value == service.stats.persist_failures
        assert registry.get("repro_service_degraded").value == 1.0

    def test_degraded_clears_on_next_successful_persist(self, tmp_path):
        faults.install_plan(
            FaultPlan([dict(point="shards.wal.append", kind="error", times=1)])
        )
        service = SolveService(
            ServiceConfig(),
            cache=ShardedResultCache(directory=str(tmp_path / "c"), shards=1),
            executor=InstantExecutor(),
        )

        async def run():
            await service.handle_line(_solve_line("s1", DIMACS))
            first = service.degraded
            await service.handle_line(_solve_line("s2", DIMACS_B))
            return first, service.degraded

        was_degraded, still_degraded = asyncio.run(run())
        assert was_degraded
        assert not still_degraded, "flag must auto-clear on successful persist"

    def test_degraded_verdict_served_warm_from_memory(self, tmp_path):
        faults.install_plan(
            FaultPlan([dict(point="shards.wal.append", kind="error", times=0)])
        )
        service = SolveService(
            ServiceConfig(),
            cache=ShardedResultCache(directory=str(tmp_path / "c"), shards=1),
            executor=InstantExecutor(),
        )

        async def run():
            await service.handle_line(_solve_line("s1"))
            return await service.handle_line(_solve_line("s2"))

        repeat = asyncio.run(run())
        assert repeat["code"] == OK and repeat["from_cache"], (
            "unpersisted verdicts must still serve warm from memory"
        )


class TestDeadWorker:
    def test_killed_pool_workers_do_not_wedge_the_service(self, kill_new_children):
        # A process pool that lost its workers refuses all later work; the
        # executor must replace it, or every later solve is a 500.
        executor = JobExecutor(workers=2, inline=False)
        service = SolveService(ServiceConfig(solver="cdcl", workers=2), executor=executor)
        formulas = [
            ("unsat", "p cnf 1 2\n1 0\n-1 0\n", "UNSAT"),
            ("sat", "p cnf 3 2\n1 2 0\n-1 3 0\n", "SAT"),
            ("php", "p cnf 2 3\n1 0\n2 0\n-1 -2 0\n", "UNSAT"),
        ]

        async def run():
            first = await service.handle_line(
                json.dumps({"op": "solve", "id": "warm", "dimacs": DIMACS})
            )
            assert first["code"] == OK and first["status"] == "SAT"
            assert kill_new_children() == 2
            return [
                await service.handle_line(
                    json.dumps({"op": "solve", "id": name, "dimacs": dimacs})
                )
                for name, dimacs, _ in formulas
            ]

        try:
            responses = asyncio.run(run())
        finally:
            executor.shutdown()
        for (name, _, status), response in zip(formulas, responses):
            assert response["code"] == OK, response
            assert response["id"] == name and response["status"] == status
            assert not response["from_cache"]
        assert service.stats.failures == 0

    def test_request_whose_worker_died_is_an_uncached_error(self):
        # The future of the request whose worker process died fails with
        # BrokenProcessPool: the answer is a 200 ERROR outcome, and the
        # verdict is not cached, so a resend is solved again.
        broken = concurrent.futures.Future()
        broken.set_exception(BrokenProcessPool("died"))

        class DyingExecutor(JobExecutor):
            def submit(self, job):
                self.submitted = getattr(self, "submitted", 0) + 1
                return broken

        executor = DyingExecutor(workers=1, inline=False)
        service = SolveService(ServiceConfig(solver="cdcl"), executor=executor)

        async def run():
            line = json.dumps({"op": "solve", "id": "x", "dimacs": DIMACS})
            return [await service.handle_line(line) for _ in range(2)]

        try:
            responses = asyncio.run(run())
        finally:
            executor.shutdown()
        for response in responses:
            assert response["code"] == OK and response["status"] == "ERROR"
            assert "worker process died" in response["result"]["error"]
        assert executor.submitted == 2
        assert len(service.cache) == 0


class TestBoundedDrain:
    def test_shutdown_cancels_stragglers_with_503(self):
        executor = InstantExecutor()
        executor.gate.clear()  # park every solve
        service = SolveService(
            ServiceConfig(drain_timeout=0.3),
            cache=ShardedResultCache(directory=None, shards=2),
            executor=executor,
        )
        ready = threading.Event()
        address = {}

        def on_ready(host, port):
            address["port"] = port
            ready.set()

        thread = threading.Thread(
            target=lambda: service.run_tcp(port=0, ready=on_ready), daemon=True
        )
        thread.start()
        assert ready.wait(timeout=10)

        with ServiceClient("127.0.0.1", address["port"]) as client:
            solve_id = client.send_solve(dimacs=DIMACS)
            time.sleep(0.1)  # let the solve reach the executor and park
            shutdown_id = client.send({"op": "shutdown"})
            bye = client.wait(shutdown_id)
            assert bye["code"] == OK
            straggler = client.wait(solve_id)
            assert straggler["code"] == UNAVAILABLE
            assert straggler["id"] == solve_id
            assert "safe to resend" in straggler["error"]
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert service.stats.drained == 1
        executor.shutdown()

    def test_shutdown_without_timeout_finishes_inflight(self):
        executor = InstantExecutor()
        executor.gate.clear()
        service = SolveService(
            ServiceConfig(),  # drain_timeout=None: wait for the work
            cache=ShardedResultCache(directory=None, shards=2),
            executor=executor,
        )
        ready = threading.Event()
        address = {}

        def on_ready(host, port):
            address["port"] = port
            ready.set()

        thread = threading.Thread(
            target=lambda: service.run_tcp(port=0, ready=on_ready), daemon=True
        )
        thread.start()
        assert ready.wait(timeout=10)

        with ServiceClient("127.0.0.1", address["port"]) as client:
            solve_id = client.send_solve(dimacs=DIMACS)
            time.sleep(0.1)
            shutdown_id = client.send({"op": "shutdown"})
            assert client.wait(shutdown_id)["code"] == OK
            # Open the gate only now: the drain is already in progress and
            # must wait for (not cancel) the in-flight solve.
            executor.gate.set()
            finished = client.wait(solve_id)
            assert finished["code"] == OK and finished["status"] == "SAT"
        thread.join(timeout=10)
        assert service.stats.drained == 0
        executor.shutdown()


class TestSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--solver", "cdcl",
                "--cache-dir", cache_dir, "--drain-timeout", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "service listening on" in line
            port = int(line.rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port) as client:
                assert client.solve(dimacs=DIMACS)["status"] == "SAT"
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert code == 0, "SIGTERM must trigger a clean graceful drain"
        # The graceful path compacted the cache: snapshots, empty WALs.
        recovered = ShardedResultCache(directory=cache_dir, shards=8)
        assert recovered.replayed_records == 0
        assert recovered.torn_records == 0


class TestStdioEof:
    def _spawn_stdio(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--stdio", "--solver", "cdcl",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    def test_abrupt_eof_mid_request_exits_cleanly(self):
        proc = self._spawn_stdio()
        try:
            # One complete request...
            proc.stdin.write(_solve_line("ok") + "\n")
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            assert response["id"] == "ok" and response["code"] == OK
            # ...then a *torn* one: half a line, no newline, EOF. The
            # parent crashed mid-write; the server must not hang or die
            # with a traceback.
            proc.stdin.write('{"op": "solve", "id": "torn", "dim')
            proc.stdin.close()
            code = proc.wait(timeout=30)
            stderr = proc.stderr.read()
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert code == 0, f"stdio server died on EOF: {stderr}"
        assert "Traceback" not in stderr

    def test_immediate_eof_exits_cleanly(self):
        proc = self._spawn_stdio()
        try:
            proc.stdin.close()
            code = proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert code == 0


class TestConcurrentClients:
    def test_two_tcp_clients_interleave_pipelined_requests(self):
        service = SolveService(
            ServiceConfig(solver="cdcl", max_inflight=4),
            cache=ShardedResultCache(directory=None, shards=2),
        )
        ready = threading.Event()
        address = {}

        def on_ready(host, port):
            address["port"] = port
            ready.set()

        thread = threading.Thread(
            target=lambda: service.run_tcp(port=0, ready=on_ready), daemon=True
        )
        thread.start()
        assert ready.wait(timeout=10)

        def sat(i: int) -> str:
            lits = [(1 if (i >> b) & 1 else -1) * (b + 1) for b in range(4)]
            return "p cnf 4 4\n" + "".join(f"{lit} 0\n" for lit in lits)

        results: dict[str, list] = {}
        errors: list[BaseException] = []

        def worker(name: str, offset: int) -> None:
            try:
                with ServiceClient("127.0.0.1", address["port"]) as client:
                    # Pipeline everything first so the two connections'
                    # requests genuinely interleave inside the server.
                    ids = [
                        client.send_solve(dimacs=sat((offset + i) % 6))
                        for i in range(8)
                    ]
                    results[name] = [client.wait(rid) for rid in ids]
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("a", 0)),
            threading.Thread(target=worker, args=("b", 3)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, f"client failed: {errors}"
        for name in ("a", "b"):
            assert len(results[name]) == 8
            assert all(r["code"] == OK for r in results[name])
            assert all(r["status"] == "SAT" for r in results[name])

        with ServiceClient("127.0.0.1", address["port"]) as client:
            # The overlapping formulas were shared across connections.
            stats = client.stats()
            hits = stats["service"]["cache_hits"] + stats["service"]["dedup_hits"]
            assert hits >= 10  # 16 requests over 6 distinct formulas
            assert client.shutdown()
        thread.join(timeout=10)


class ScriptedServer:
    """A tiny TCP server whose per-connection behaviour is scripted.

    Each accepted connection runs the next behaviour from the list; the
    last behaviour repeats for any further connections (reconnects).
    """

    def __init__(self, *behaviours) -> None:
        self._behaviours = list(behaviours)
        self._stop = False
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.1)  # so close() can interrupt accept()
        self.port = self._sock.getsockname()[1]
        self.connections = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        index = 0
        while not self._stop:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            behaviour = self._behaviours[min(index, len(self._behaviours) - 1)]
            index += 1
            self.connections += 1
            try:
                behaviour(conn)
            except (OSError, ValueError):
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._stop = True
        self._thread.join(timeout=5)
        self._sock.close()


def _read_request(conn) -> dict:
    reader = conn.makefile("r", encoding="utf-8", newline="\n")
    return json.loads(reader.readline())


def _respond(conn, payload: dict) -> None:
    conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))


def _vanish_after_read(conn) -> None:
    _read_request(conn)  # swallow the request, then drop the connection


def _answer_pings(conn) -> None:
    reader = conn.makefile("r", encoding="utf-8", newline="\n")
    while True:
        line = reader.readline()
        if not line:
            return
        request = json.loads(line)
        _respond(conn, {"id": request["id"], "code": 200, "op": "ping",
                        "ok": True})


class TestClientRetry:
    def test_default_fail_fast_raises_service_error_with_pending(self):
        server = ScriptedServer(_vanish_after_read)
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                request_id = client.send({"op": "ping"})
                with pytest.raises(ServiceError) as excinfo:
                    client.wait(request_id)
                assert excinfo.value.pending == (request_id,)
        finally:
            server.close()

    def test_reconnect_and_resubmit_after_drop(self):
        server = ScriptedServer(_vanish_after_read, _answer_pings)
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(retries=3, base_delay=0.001, seed=1),
            )
            with client:
                assert client.ping(), "retry must absorb the dropped connection"
                assert client.reconnects == 1
                assert client.retries >= 1
                assert client.pending == ()
        finally:
            server.close()

    def test_429_backs_off_and_resends(self):
        def reject_then_accept(conn):
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            request = json.loads(reader.readline())
            _respond(conn, {"id": request["id"], "code": 429,
                            "error": "queue full"})
            resent = json.loads(reader.readline())
            assert resent["id"] == request["id"]
            _respond(conn, {"id": resent["id"], "code": 200, "op": "ping",
                            "ok": True})
            reader.readline()  # hold the connection until the client closes

        server = ScriptedServer(reject_then_accept)
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(retries=3, base_delay=0.001, seed=1),
            )
            with client:
                assert client.ping()
                assert client.retries == 1
                assert client.reconnects == 0  # same connection throughout
        finally:
            server.close()

    def test_429_returned_to_caller_when_retries_exhausted(self):
        def always_reject(conn):
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            while True:
                line = reader.readline()
                if not line:
                    return
                request = json.loads(line)
                _respond(conn, {"id": request["id"], "code": 429,
                                "error": "queue full"})

        server = ScriptedServer(always_reject)
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(retries=2, base_delay=0.001, seed=1),
            )
            with client:
                response = client.call({"op": "ping"})
                assert response["code"] == 429  # surfaced, not swallowed
                assert client.retries == 2
        finally:
            server.close()

    def test_deadline_bounds_the_whole_wait(self):
        def read_but_never_answer(conn):
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            while reader.readline():
                pass

        server = ScriptedServer(read_but_never_answer)
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                timeout=0.05,
                retry=RetryPolicy(
                    retries=1000, base_delay=0.001, deadline=0.5, seed=1
                ),
            )
            with client:
                started = time.monotonic()
                with pytest.raises(ServiceError, match="deadline|no response"):
                    client.call({"op": "ping"})
                assert time.monotonic() - started < 5.0
        finally:
            server.close()

    def test_injected_recv_drop_recovers(self):
        faults.install_plan(
            FaultPlan([dict(point="client.recv", kind="drop", times=1)])
        )
        server = ScriptedServer(_answer_pings)
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(retries=2, base_delay=0.001, seed=1),
            )
            with client:
                assert client.ping()
                assert client.reconnects == 1
        finally:
            server.close()

    def test_torn_response_line_treated_as_connection_loss(self):
        def torn_then_answer(conn):
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            reader.readline()
            conn.sendall(b'{"id": "req-1", "co')  # torn: crash mid-write
            # then the connection dies with it

        server = ScriptedServer(torn_then_answer, _answer_pings)
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(retries=3, base_delay=0.001, seed=1),
            )
            with client:
                assert client.ping()
                assert client.reconnects >= 1
        finally:
            server.close()
