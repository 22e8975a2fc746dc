"""Load generator for the ``service-mix`` workload.

One process drives a ``repro serve`` subprocess over at most two TCP
connections (plus a short-lived third one for the oversized request):

* an **open loop** sends requests on a fixed schedule (``rate`` per second)
  whatever the server does, times each request from its *due* time and
  records how late the generator itself ran;
* a **closed loop** keeps a fixed window of requests outstanding (the
  saturated throughput and the latency under that load).

The request stream is a pure function of the seed: every fifth request is
a new ("cold") formula, the others resend ("warm") a formula whose cold
request went out at least ``WARM_LAG`` requests earlier, so cold solves
with their WAL appends run side by side with cache hits (cold:warm = 1:4).
The first ``WARM_LAG`` requests are all cold, as nothing is old enough to
resend yet.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import subprocess
import sys
import threading
import time

import corpus

COLD_EVERY = 5
WARM_LAG = 8
WARM_SMALL = 0.85
#: Lines longer than asyncio's default 64 KiB StreamReader limit.
OVERSIZE_VARIABLES = 3000


class Stream:
    """The deterministic request sequence of one seed (an int or a string)."""

    def __init__(self, seed):
        self.seed = seed
        self.formulas: list[corpus.Instance] = []
        self._lines: list[str] = []  # JSON body of each formula, minus the id
        self._rng = corpus._rng(seed, "service-stream")
        self._next = 0
        self._cold_at: list[int] = []  # request index of each formula's cold send

    def _formula(self, j: int) -> str:
        while len(self.formulas) <= j:
            inst = corpus.service_formula(self.seed, len(self.formulas))
            body = {"op": "solve", "clauses": inst.clauses}
            if inst.tags.get("solver"):
                body["solver"] = inst.tags["solver"]
            self.formulas.append(inst)
            self._lines.append(json.dumps(body, separators=(",", ":"))[1:])
        return self._lines[j]

    def take(self) -> tuple[str, int, bool, str]:
        """Next request: ``(id, formula index, cold?, wire line)``."""
        i = self._next
        self._next += 1
        eligible = bisect.bisect_right(self._cold_at, i - WARM_LAG)
        cold = i % COLD_EVERY == 0 or eligible == 0
        if cold:
            j = len(self._cold_at)
            self._cold_at.append(i)
        else:
            # Warm resends favour small formulas (WARM_SMALL of them), so the
            # p50 sits inside the densest group of requests, not on its edge.
            medium = self._rng.random() >= WARM_SMALL
            j = self._rng.randrange(eligible)
            for _ in range(64):
                if corpus.service_is_medium(j) == medium:
                    break
                j = self._rng.randrange(eligible)
        rid = f"r{i}"
        return rid, j, cold, '{"id":"%s",%s\n' % (rid, self._formula(j))

    def oversize_line(self) -> str:
        inst = corpus.oversize_formula(self.seed, OVERSIZE_VARIABLES)
        body = {"op": "solve", "id": "oversize", "solver": "cdcl", "clauses": inst.clauses}
        return json.dumps(body, separators=(",", ":")) + "\n"


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, cache_dir: str, log_path: str, spans_out: str = "",
                 cpu=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        if spans_out:
            cmd = [sys.executable, os.path.join(root, "perfbench", "serve_traced.py"), spans_out]
        else:
            cmd = [sys.executable, "-m", "repro.cli"]
        cmd += ["serve", "--port", "0", "--cache-dir", cache_dir]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.address = (host, int(port))
        # Keep draining stdout so the server can never block on a full pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 60.0) -> int:
        try:
            asyncio.run(_call(self.address, {"op": "shutdown", "id": "bye"}))
            code = self.proc.wait(timeout=timeout)
        except (OSError, subprocess.TimeoutExpired, asyncio.TimeoutError):
            self.kill()
            return -1
        self._log.close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


async def _call(address, payload: dict, timeout: float = 30.0) -> dict:
    reader, writer = await asyncio.open_connection(*address, limit=1 << 24)
    try:
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), timeout))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def ping(address) -> None:
    reply = asyncio.run(_call(address, {"op": "ping", "id": "ping"}))
    if not reply.get("ok"):
        raise RuntimeError(f"bad ping reply {reply!r}")


def stats(address) -> dict:
    return asyncio.run(_call(address, {"op": "stats", "id": "stats"}))["stats"]


def oversize(address, line: str) -> str:
    """Send one oversized line on its own connection; describe what came back."""

    async def go():
        reader, writer = await asyncio.open_connection(*address, limit=1 << 24)
        try:
            writer.write(line.encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), 60.0)
        except (ConnectionError, OSError):
            return "reset"
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if not raw:
            return "reset"
        reply = json.loads(raw)
        return f"code {reply.get('code')}"

    return asyncio.run(go())


class Recorder:
    """Every request sent: timing, formula and the response."""

    def __init__(self):
        self.rows: dict[str, dict] = {}
        self._waiters: dict[str, asyncio.Future] = {}

    def sent(self, rid, j, cold, due, at, phase) -> asyncio.Future:
        self.rows[rid] = {"j": j, "cold": cold, "due": due, "sent": at,
                          "phase": phase, "done": None, "reply": None}
        waiter = self._waiters[rid] = asyncio.get_running_loop().create_future()
        return waiter

    def answered(self, reply: dict):
        done = time.perf_counter()
        rid = reply.get("id")
        row = self.rows.get(rid)
        if row is not None and row["reply"] is None:
            row["done"] = done
            row["reply"] = reply
            waiter = self._waiters.pop(rid)
            if not waiter.done():
                waiter.set_result(reply)

    def pending(self, phase) -> list:
        return [f for rid, f in self._waiters.items() if self.rows[rid]["phase"] == phase]


async def _open_connections(address, recorder, n=2):
    conns = []
    for _ in range(n):
        reader, writer = await asyncio.open_connection(*address, limit=1 << 24)

        async def pump(reader=reader):
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                recorder.answered(json.loads(raw))

        conns.append((writer, asyncio.ensure_future(pump())))
    return conns


async def _close(conns):
    for writer, pump in conns:
        writer.close()
    for writer, pump in conns:
        try:
            await writer.wait_closed()
        except OSError:
            pass
        pump.cancel()
        try:
            await pump
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


async def _open_loop(address, stream, recorder, rate, seconds, drain):
    conns = await _open_connections(address, recorder)
    try:
        count = int(rate * seconds)
        start = time.perf_counter() + 0.05
        for i in range(count):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            rid, j, cold, line = stream.take()
            writer = conns[i % len(conns)][0]
            recorder.sent(rid, j, cold, due, time.perf_counter(), "open")
            writer.write(line.encode())
            await writer.drain()
        pending = recorder.pending("open")
        if pending:
            await asyncio.wait(pending, timeout=drain)
    finally:
        await _close(conns)


async def _closed_loop(address, stream, recorder, window, seconds, requests, phase):
    """``window`` outstanding requests until ``seconds`` pass (or ``requests`` are done)."""
    conns = await _open_connections(address, recorder)
    try:
        end = time.perf_counter() + seconds
        sent = 0

        async def slot(k):
            nonlocal sent
            writer = conns[k % len(conns)][0]
            while True:
                if requests is not None and sent >= requests:
                    return
                if requests is None and time.perf_counter() >= end:
                    return
                sent += 1
                rid, j, cold, line = stream.take()
                now = time.perf_counter()
                waiter = recorder.sent(rid, j, cold, now, now, phase)
                writer.write(line.encode())
                await writer.drain()
                await waiter

        await asyncio.wait_for(
            asyncio.gather(*(slot(k) for k in range(window))), seconds + 120
        )
    finally:
        await _close(conns)


def open_loop(address, stream, recorder, rate, seconds, drain=30.0):
    asyncio.run(_open_loop(address, stream, recorder, rate, seconds, drain))


def closed_loop(address, stream, recorder, window, seconds=0.0, requests=None, phase="closed"):
    asyncio.run(_closed_loop(address, stream, recorder, window, seconds, requests, phase))
