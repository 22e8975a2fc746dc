"""Tests for repro.service.server: dedup, backpressure, failure isolation."""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import io
import json
import os
import socket
import threading

import pytest

from repro.cnf.dimacs import to_dimacs
from repro.exceptions import RuntimeSubsystemError
from repro.runtime.jobs import SolveOutcome
from repro.runtime.pool import JobExecutor
from repro.runtime.shards import ShardedResultCache
from repro.service import ServiceConfig, SolveService, server
from repro.service.protocol import BAD_REQUEST, FAILED, OK, REJECTED, TOO_LARGE

DIMACS = "p cnf 2 2\n1 2 0\n-1 0\n"
DIMACS_B = "p cnf 2 1\n1 0\n"
DIMACS_C = "p cnf 2 1\n2 0\n"


class GatedExecutor:
    """A JobExecutor stand-in that counts submissions and can hold them.

    ``gate.clear()`` parks every submitted job until ``gate.set()``, which
    is how the tests pin jobs "in flight" deterministically.
    """

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.submitted = []
        self._threads = concurrent.futures.ThreadPoolExecutor(max_workers=8)

    def submit(self, job):
        self.submitted.append(job)
        return self._threads.submit(self._run, job)

    def _run(self, job) -> SolveOutcome:
        assert self.gate.wait(timeout=10), "test gate never opened"
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
        self._threads.shutdown(wait=False)


class ExplodingExecutor:
    """Fails at submit time — the infrastructure-failure path."""

    def __init__(self) -> None:
        self.submitted = 0

    def submit(self, job):
        self.submitted += 1
        raise RuntimeError("executor exploded")

    def shutdown(self, wait: bool = True) -> None:
        pass


def _service(executor=None, **config) -> SolveService:
    return SolveService(
        ServiceConfig(**config),
        cache=ShardedResultCache(directory=None, shards=2),
        executor=executor,
    )


def _solve_line(request_id: str, dimacs: str = DIMACS, **fields) -> str:
    return json.dumps({"op": "solve", "id": request_id, "dimacs": dimacs, **fields})


class TestOps:
    def test_ping_stats_shutdown(self):
        service = _service(executor=GatedExecutor())

        async def run():
            ping = await service.handle_line('{"op": "ping", "id": "p"}')
            stats = await service.handle_line('{"op": "stats", "id": "s"}')
            bye = await service.handle_line('{"op": "shutdown", "id": "q"}')
            return ping, stats, bye

        ping, stats, bye = asyncio.run(run())
        assert ping == {"id": "p", "code": OK, "op": "ping", "ok": True}
        assert stats["code"] == OK
        assert stats["stats"]["cache"]["shards"] == 2
        assert stats["stats"]["service"]["requests"] == 1  # the ping
        assert bye["code"] == OK and bye["op"] == "shutdown"

    def test_bad_request_is_400_and_survivable(self):
        service = _service(executor=GatedExecutor())

        async def run():
            bad = await service.handle_line("this is not json")
            unknown = await service.handle_line('{"op": "solve", "id": "u"}')
            ping = await service.handle_line('{"op": "ping", "id": "p"}')
            return bad, unknown, ping

        bad, unknown, ping = asyncio.run(run())
        assert bad["code"] == BAD_REQUEST
        assert unknown["code"] == BAD_REQUEST and unknown["id"] == "u"
        assert ping["code"] == OK
        assert service.stats.bad_requests == 2

    def test_non_int_literal_is_400_not_a_failure(self):
        service = _service(executor=GatedExecutor())
        line = json.dumps({"op": "solve", "id": "s", "clauses": [["1"]]})
        response = asyncio.run(service.handle_line(line))
        assert response["code"] == BAD_REQUEST and response["id"] == "s"
        assert service.stats.bad_requests == 1
        assert service.stats.failures == 0

    def test_config_validation(self):
        with pytest.raises(RuntimeSubsystemError):
            ServiceConfig(solver="made-up")
        with pytest.raises(RuntimeSubsystemError):
            ServiceConfig(workers=0)
        with pytest.raises(RuntimeSubsystemError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(RuntimeSubsystemError):
            ServiceConfig(queue_limit=-1)


class TestDedup:
    def test_concurrent_identical_jobs_share_one_solve(self):
        """The acceptance property: N identical in-flight jobs, ONE solve."""
        executor = GatedExecutor()
        service = _service(executor=executor)

        async def run():
            executor.gate.clear()  # pin the representative in flight
            tasks = [
                asyncio.ensure_future(
                    service.handle_line(_solve_line(f"r{i}"))
                )
                for i in range(5)
            ]
            await asyncio.sleep(0.05)  # all five must have registered
            executor.gate.set()
            return await asyncio.gather(*tasks)

        responses = asyncio.run(run())
        assert len(executor.submitted) == 1  # exactly one underlying solve
        assert all(r["code"] == OK and r["status"] == "SAT" for r in responses)
        deduped = [r for r in responses if r["deduped"]]
        assert len(deduped) == 4
        assert service.stats.dedup_hits == 4
        assert service.stats.executed == 1

    def test_different_formulas_not_deduped(self):
        executor = GatedExecutor()
        service = _service(executor=executor)

        async def run():
            executor.gate.clear()
            tasks = [
                asyncio.ensure_future(service.handle_line(_solve_line("a", DIMACS))),
                asyncio.ensure_future(service.handle_line(_solve_line("b", DIMACS_B))),
            ]
            await asyncio.sleep(0.05)
            executor.gate.set()
            return await asyncio.gather(*tasks)

        responses = asyncio.run(run())
        assert len(executor.submitted) == 2
        assert not any(r["deduped"] for r in responses)

    def test_different_solver_not_deduped(self):
        executor = GatedExecutor()
        service = _service(executor=executor)

        async def run():
            executor.gate.clear()
            tasks = [
                asyncio.ensure_future(
                    service.handle_line(_solve_line("a", solver="cdcl"))
                ),
                asyncio.ensure_future(
                    service.handle_line(_solve_line("b", solver="dpll"))
                ),
            ]
            await asyncio.sleep(0.05)
            executor.gate.set()
            return await asyncio.gather(*tasks)

        responses = asyncio.run(run())
        assert len(executor.submitted) == 2
        assert not any(r["deduped"] for r in responses)

    def test_dedup_waiter_resolved_on_representative_failure(self):
        """A dedup'd request must never hang when its representative dies."""

        class FailLater(GatedExecutor):
            def _run(self, job):
                assert self.gate.wait(timeout=10)
                raise RuntimeError("worker died")

        executor = FailLater()
        service = _service(executor=executor)

        async def run():
            executor.gate.clear()
            tasks = [
                asyncio.ensure_future(service.handle_line(_solve_line(f"r{i}")))
                for i in range(2)
            ]
            await asyncio.sleep(0.05)
            executor.gate.set()
            return await asyncio.gather(*tasks)

        first, second = asyncio.run(run())
        assert first["code"] == FAILED  # the representative reports failure
        assert second["code"] == OK and second["result"]["status"] == "ERROR"


class TestCacheFront:
    def test_second_request_served_from_cache(self):
        executor = GatedExecutor()
        service = _service(executor=executor)

        async def run():
            first = await service.handle_line(_solve_line("a"))
            second = await service.handle_line(_solve_line("b"))
            return first, second

        first, second = asyncio.run(run())
        assert len(executor.submitted) == 1
        assert not first["from_cache"] and second["from_cache"]
        assert second["result"]["status"] == "SAT"
        assert service.stats.cache_hits == 1

    def test_assumptions_key_separately(self):
        executor = GatedExecutor()
        service = _service(executor=executor)

        async def run():
            plain = await service.handle_line(_solve_line("a", DIMACS))
            assumed = await service.handle_line(
                _solve_line("b", DIMACS, assumptions=[2])
            )
            return plain, assumed

        plain, assumed = asyncio.run(run())
        assert len(executor.submitted) == 2  # different cache keys
        assert not assumed["from_cache"]

    def test_preprocessed_verdict_never_answers_its_reduced_core(
        self, shared_core_pair
    ):
        # ``shifted`` preprocesses to exactly ``core``. Its verdict must be
        # stored under its own key only: a later plain request for
        # ``core`` has to be solved, not served ``shifted``'s model.
        core, shifted = shared_core_pair
        executor = JobExecutor(workers=1, inline=False)
        service = _service(executor=executor, solver="cdcl")

        async def run():
            first = await service.handle_line(
                _solve_line("f1", to_dimacs(shifted), preprocess=True)
            )
            second = await service.handle_line(_solve_line("c", to_dimacs(core)))
            return first, second

        try:
            responses = asyncio.run(run())
        finally:
            executor.shutdown()
        for formula, response in zip((shifted, core), responses):
            assert response["code"] == OK and response["status"] == "SAT"
            model = response["result"]["assignment"]
            assert all(abs(lit) <= formula.num_variables for lit in model)
            assert formula.evaluate({abs(lit): lit > 0 for lit in model})


class TestBackpressure:
    def test_queue_full_rejects_with_429(self):
        executor = GatedExecutor()
        service = _service(executor=executor, max_inflight=1, queue_limit=1)

        async def run():
            executor.gate.clear()
            # First job takes the executor slot, second fills the queue.
            running = asyncio.ensure_future(
                service.handle_line(_solve_line("run", DIMACS))
            )
            await asyncio.sleep(0.05)
            queued = asyncio.ensure_future(
                service.handle_line(_solve_line("queue", DIMACS_B))
            )
            await asyncio.sleep(0.05)
            rejected = await service.handle_line(_solve_line("reject", DIMACS_C))
            executor.gate.set()
            return await running, await queued, rejected

        running, queued, rejected = asyncio.run(run())
        assert running["code"] == OK and queued["code"] == OK
        assert rejected["code"] == REJECTED
        assert "queue full" in rejected["error"]
        assert service.stats.rejected == 1
        # The rejected job never reached the executor.
        assert len(executor.submitted) == 2

    def test_rejection_does_not_poison_dedup(self):
        """After a 429, resending the same formula solves normally."""
        executor = GatedExecutor()
        service = _service(executor=executor, max_inflight=1, queue_limit=0)

        async def run():
            executor.gate.clear()
            running = asyncio.ensure_future(
                service.handle_line(_solve_line("run", DIMACS))
            )
            await asyncio.sleep(0.05)
            rejected = await service.handle_line(_solve_line("rej", DIMACS_B))
            executor.gate.set()
            first = await running
            retried = await service.handle_line(_solve_line("retry", DIMACS_B))
            return first, rejected, retried

        first, rejected, retried = asyncio.run(run())
        assert first["code"] == OK
        assert rejected["code"] == REJECTED
        assert retried["code"] == OK and retried["status"] == "SAT"


class TestFailureIsolation:
    def test_executor_failure_is_500_and_survivable(self):
        executor = ExplodingExecutor()
        service = _service(executor=executor)

        async def run():
            failed = await service.handle_line(_solve_line("x"))
            ping = await service.handle_line('{"op": "ping", "id": "p"}')
            return failed, ping

        failed, ping = asyncio.run(run())
        assert failed["code"] == FAILED and "exploded" in failed["error"]
        assert ping["code"] == OK
        assert service.stats.failures == 1

    def test_error_outcome_not_cached(self):
        executor = ExplodingExecutor()
        service = _service(executor=executor)

        async def run():
            await service.handle_line(_solve_line("x"))
            return await service.handle_line(_solve_line("y"))

        second = asyncio.run(run())
        # The failure was not persisted: the retry reaches the executor.
        assert executor.submitted == 2
        assert second["code"] == FAILED


class TestTcpRoundTrip:
    def test_real_solver_over_socket(self):
        """Full stack: TCP transport, real cdcl solves, client pipelining."""
        from repro.service import ServiceClient

        service = SolveService(
            ServiceConfig(solver="cdcl", workers=1),
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

        with ServiceClient("127.0.0.1", address["port"]) as client:
            assert client.ping()
            sat = client.solve(dimacs=DIMACS)
            assert sat["status"] == "SAT" and sat["result"]["verified"]
            unsat = client.solve(clauses=[[1], [-1]])
            assert unsat["status"] == "UNSAT"
            again = client.solve(dimacs=DIMACS)
            assert again["from_cache"]
            stats = client.stats()
            assert stats["service"]["cache_hits"] == 1
            assert client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()


@contextlib.contextmanager
def _serving(config: ServiceConfig):
    """A real TCP server in a thread; yields its port. The body must end
    by sending ``shutdown``; the server thread must then exit."""
    service = SolveService(config, cache=ShardedResultCache(directory=None, shards=2))
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
    yield address["port"]
    thread.join(timeout=10)
    assert not thread.is_alive()


def _oversized_solve_line(size: int) -> bytes:
    """A well-formed solve request whose line is longer than ``size`` bytes."""
    clauses = [[v, -(v + 1), v + 2] for v in range(1, size // 8)]
    line = json.dumps({"op": "solve", "id": "big", "solver": "cdcl", "clauses": clauses})
    assert len(line) > size
    return line.encode()


def _padded_ping(request_id: str, size: int) -> bytes:
    """A ping request line of exactly ``size`` bytes (newline not counted)."""
    line = json.dumps({"op": "ping", "id": request_id}).encode()
    return line + b" " * (size - len(line))


class TestRequestSize:
    def test_oversized_line_is_413_then_the_connection_serves(self):
        """Over TCP at the default 64 KiB limit: 413, then 200, one socket."""
        assert server.MAX_REQUEST_BYTES == 64 * 1024
        with _serving(ServiceConfig(solver="cdcl")) as port, socket.create_connection(
            ("127.0.0.1", port)
        ) as sock:
            replies = sock.makefile("rb")

            def call(line: bytes) -> dict:
                sock.sendall(line + b"\n")
                return json.loads(replies.readline())

            too_large = call(_oversized_solve_line(64 * 1024))
            assert too_large["code"] == TOO_LARGE and too_large["id"] == "big"
            solved = call(_solve_line("after").encode())
            assert solved["code"] == OK and solved["id"] == "after"
            assert solved["result"]["status"] == "SAT"
            stats = call(b'{"op": "stats", "id": "s"}')["stats"]
            assert stats["service"]["responses"]["413"] == 1
            assert stats["service"]["bad_requests"] == 1
            assert call(b'{"op": "shutdown", "id": "q"}')["code"] == OK
            replies.close()

    def test_limit_is_inclusive_and_pipelined_lines_survive(self, monkeypatch):
        """A line of exactly the limit is served; one byte more is a 413,
        and the requests pipelined behind it in the same write still run."""
        limit = 200
        lines = [
            _padded_ping("at-limit", limit),
            _padded_ping("over", limit + 1),
            _padded_ping("far-over", 50 * limit),
            _padded_ping("after", 10),
        ]
        monkeypatch.setattr(server, "MAX_REQUEST_BYTES", limit)
        with _serving(ServiceConfig(solver="cdcl")) as port, socket.create_connection(
            ("127.0.0.1", port)
        ) as sock:
            sock.sendall(b"\n".join(lines) + b"\n")
            replies = sock.makefile("rb")
            got = [json.loads(replies.readline()) for _ in lines]
            sock.sendall(b'{"op": "shutdown", "id": "q"}\n')
            assert json.loads(replies.readline())["code"] == OK
            replies.close()
        assert sorted((r["code"], r["id"]) for r in got) == [
            (OK, "after"), (OK, "at-limit"), (TOO_LARGE, "far-over"), (TOO_LARGE, "over"),
        ]

    @pytest.mark.parametrize("kind", ["pipe", "file"])
    def test_stdio_oversized_line_is_413_then_serves(self, kind, tmp_path, monkeypatch):
        """Both stdio readers: the event-loop pipe and the thread fallback."""
        limit = 1024
        payload = b"".join(
            line + b"\n"
            for line in (
                _padded_ping("at-limit", limit),
                _oversized_solve_line(limit),
                _padded_ping("after", 10),
            )
        )
        monkeypatch.setattr(server, "MAX_REQUEST_BYTES", limit)
        service = _service(executor=GatedExecutor())
        out = io.StringIO()
        if kind == "file":
            path = tmp_path / "requests.ndjson"
            path.write_bytes(payload)
            with open(path, "rb") as stdin:
                assert service.run_stdio(stdin=stdin, stdout=out) == 0
        else:
            read_fd, write_fd = os.pipe()

            def feed():
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)

            writer = threading.Thread(target=feed)
            writer.start()
            with os.fdopen(read_fd, "rb") as stdin:
                assert service.run_stdio(stdin=stdin, stdout=out) == 0
            writer.join(timeout=10)
        got = [json.loads(line) for line in out.getvalue().splitlines()]
        assert sorted((r["code"], r["id"]) for r in got) == [
            (OK, "after"), (OK, "at-limit"), (TOO_LARGE, "big"),
        ]

    def test_client_gets_the_413_for_its_own_request(self, monkeypatch):
        """The 413 names the request's id, assigned or given (even last in
        the payload), so a client waiting on that id gets an error instead
        of waiting forever, and its connection lives."""
        from repro.service import ProtocolError, ServiceClient

        # Far longer than one socket read, so the server sees only the
        # start of the line before it starts discarding.
        clauses = [[v, v + 1] for v in range(1, 100_000)]
        monkeypatch.setattr(server, "MAX_REQUEST_BYTES", 512)
        # The socket timeout turns a wait that would never end into an error.
        with _serving(ServiceConfig(solver="cdcl")) as port, ServiceClient(
            "127.0.0.1", port, timeout=20
        ) as client:
            with pytest.raises(ProtocolError) as refused:
                client.solve(clauses=clauses)
            assert refused.value.code == TOO_LARGE
            given = client.send({"op": "solve", "clauses": clauses, "id": "mine"})
            assert given == "mine"
            assert client.wait(given)["code"] == TOO_LARGE
            assert client.call({"op": "ping", "id": None})["ok"]
            assert client.solve(dimacs=DIMACS)["status"] == "SAT"
            assert client.shutdown()

    def test_id_is_read_only_from_the_id_key(self):
        from repro.service.server import _peek_request_id

        assert _peek_request_id(b'{"op": "solve", "id" : "a\\"b", "cl') == 'a"b'
        assert _peek_request_id(b'{"op": "solve", "dimacs": "c \\"id\\": \\"x\\"') is None
        assert _peek_request_id(b'{"label": "id", "clauses": [[1, 2') is None
        assert _peek_request_id(b'{"id": 7, "clauses": [[1, 2') is None
