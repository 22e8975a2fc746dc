"""A small blocking client for the solve service, with retry/backoff.

:class:`ServiceClient` speaks the :mod:`repro.service.protocol` wire
format over one TCP connection. It is deliberately synchronous — the
scripting and testing counterpart to the asyncio server — but still
supports *pipelining*: :meth:`ServiceClient.send` writes a request
without waiting, and :meth:`ServiceClient.wait` collects responses by
``id`` in any arrival order, so a caller can keep the server's whole
executor busy from a single connection::

    with ServiceClient("127.0.0.1", 9090) as client:
        ids = [client.send_solve(dimacs=text) for text in formulas]
        results = [client.wait(request_id) for request_id in ids]

One-shot conveniences (:meth:`solve`, :meth:`ping`, :meth:`stats`,
:meth:`shutdown`) wrap the same send/wait pair.

Failure handling is layered:

* Every transport-level failure — a reset connection, abrupt EOF, a
  read timeout, an unparsable response line — surfaces as one typed
  :class:`~repro.exceptions.ServiceError` whose ``pending`` attribute
  lists the request ids still awaiting responses, so a caller always
  knows exactly what is unaccounted for.
* With a :class:`RetryPolicy`, the client absorbs those failures
  itself: it reconnects and **re-submits every outstanding request**
  (safe — the server's cache and in-flight dedup make duplicate solves
  idempotent), and it honours ``429`` (queue full) and ``503``
  (draining) responses by backing off — exponential delay with full
  jitter — and resending. A retrying client therefore rides out server
  restarts, dropped connections and load spikes, and only raises once
  its retry budget or per-request deadline is exhausted.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Optional

from repro import faults as _faults
from repro.exceptions import ServiceError
from repro.service.protocol import (
    OK,
    REJECTED,
    UNAVAILABLE,
    ProtocolError,
    encode_message,
)
from repro.telemetry import instrument as _telemetry


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`ServiceClient` retries transient failures.

    Backoff is exponential with **full jitter**: the delay before retry
    attempt ``n`` is drawn uniformly from ``[0, min(max_delay,
    base_delay * 2**n)]`` — the jitter decorrelates a thundering herd of
    clients all retrying the same overloaded server.

    Attributes
    ----------
    retries:
        How many times one operation (a send, or one ``wait``) may be
        retried after a transient failure. ``0`` — the default — means
        fail fast: transport errors still surface as typed
        :class:`~repro.exceptions.ServiceError`\\ s, but nothing is
        resent automatically.
    base_delay / max_delay:
        The exponential backoff envelope, in seconds.
    deadline:
        Overall wall-clock budget (seconds) for one :meth:`wait`,
        spanning all its retries; ``None`` means unbounded.
    retry_rejected:
        Whether ``429`` (queue full) and ``503`` (server draining)
        responses consume a retry and resend, instead of being returned
        to the caller immediately.
    seed:
        Seed for the jitter RNG — chaos tests pin it so retry schedules
        are reproducible; ``None`` seeds from the OS.
    """

    retries: int = 0
    base_delay: float = 0.05
    max_delay: float = 2.0
    deadline: Optional[float] = None
    retry_rejected: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ServiceError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ServiceError(
                f"backoff delays must be >= 0, got base={self.base_delay} "
                f"max={self.max_delay}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ServiceError(
                f"deadline must be positive, got {self.deadline}"
            )

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The jittered delay (seconds) before retry number ``attempt``."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** attempt))
        return rng.uniform(0.0, ceiling)


class ServiceClient:
    """One TCP connection to a :class:`~repro.service.server.SolveService`.

    Parameters
    ----------
    host / port:
        Where the service listens (``repro serve`` prints the bound
        address on startup).
    timeout:
        Socket timeout in seconds for connect and reads; ``None`` blocks
        indefinitely (solves can be slow — pass a timeout only when the
        caller has its own retry story). With a retrying policy, a read
        timeout counts as a transient failure and triggers reconnect.
    retry:
        The :class:`RetryPolicy`; the default fails fast (no resends)
        while still mapping every transport failure to
        :class:`~repro.exceptions.ServiceError`.

    Attributes
    ----------
    retries:
        Transient failures absorbed so far (transport + backoff resends).
    reconnects:
        How many times the TCP connection was re-established.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9090,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(self._retry.seed)
        self._ids = itertools.count(1)
        self._responses: dict[str, dict] = {}
        self._sent: dict[str, dict] = {}
        self._closed = False
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self.retries = 0
        self.reconnects = 0
        self._connect()

    # -- plumbing --------------------------------------------------------------
    @property
    def pending(self) -> tuple[str, ...]:
        """Request ids sent but not yet answered."""
        return tuple(self._sent)

    def _connect(self) -> None:
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
                self._reader = self._sock.makefile(
                    "r", encoding="utf-8", newline="\n"
                )
                return
            except OSError as exc:
                if attempt >= self._retry.retries:
                    raise ServiceError(
                        f"cannot connect to {self._host}:{self._port}: "
                        f"{type(exc).__name__}: {exc}",
                        pending=tuple(self._sent),
                    ) from exc
                self._note_retry("connect")
                time.sleep(self._retry.backoff(attempt, self._rng))
                attempt += 1

    def _teardown(self) -> None:
        """Close the socket pair, tolerating any state it is in."""
        for closer in (self._reader, self._sock):
            if closer is None:
                continue
            try:
                closer.close()
            except OSError:
                pass
        self._reader = None
        self._sock = None

    def _note_retry(self, reason: str) -> None:
        self.retries += 1
        if _telemetry.active():
            _telemetry.emit("repro_service_retries_total", reason=reason)

    def _reconnect_and_resubmit(self) -> None:
        """Fresh connection, then resend everything still unanswered.

        Re-submission is safe by construction: the server deduplicates
        in-flight work and answers repeats from its cache, so a request
        that was already received (even already *solved*) just gets its
        verdict again under the same id.
        """
        self._teardown()
        self._connect()
        self.reconnects += 1
        if _telemetry.active():
            _telemetry.emit("repro_service_reconnects_total")
        for payload in list(self._sent.values()):
            self._sock.sendall(encode_message(payload).encode("utf-8"))

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def send(self, payload: dict) -> str:
        """Write one request line without waiting; returns its ``id``.

        Assigns a connection-unique ``id`` when the payload has none, so
        the matching response can be collected later with :meth:`wait`.
        The ``id``, assigned or given, goes first on the line, where a
        server that refuses an oversized line (``413``) still reads it.
        A send that hits a dead connection reconnects and re-submits
        (within the retry budget); beyond it, raises
        :class:`~repro.exceptions.ServiceError`.
        """
        request_id = payload.get("id")
        if request_id is None:
            request_id = f"req-{next(self._ids)}"
        payload = {"id": request_id, **{k: v for k, v in payload.items() if k != "id"}}
        self._sent[request_id] = payload
        attempt = 0
        while True:
            try:
                rule = _faults.fire("client.send")
                if rule is not None and rule.kind == "drop":
                    # Injected connection loss while sending: sever the
                    # socket so the failure is real, then recover below.
                    self._teardown()
                    raise _faults.InjectedFault(
                        "injected connection drop at client.send"
                    )
                if self._sock is None:
                    raise ConnectionResetError("connection is down")
                self._sock.sendall(encode_message(payload).encode("utf-8"))
                return request_id
            except OSError as exc:
                if attempt >= self._retry.retries:
                    raise ServiceError(
                        f"send failed for request {request_id!r}: "
                        f"{type(exc).__name__}: {exc}",
                        pending=tuple(self._sent),
                    ) from exc
                self._note_retry("transport")
                time.sleep(self._retry.backoff(attempt, self._rng))
                attempt += 1
                try:
                    self._reconnect_and_resubmit()
                    return request_id  # resubmit included this payload
                except OSError:
                    continue  # reconnected socket died instantly; retry

    def _read_response(self) -> dict:
        """One response line off the wire (raises ``OSError``-family on loss).

        A closed stream, an abrupt EOF and a torn/unparsable line all
        raise ``ConnectionResetError`` so :meth:`wait` has a single
        transient-failure path to retry.
        """
        rule = _faults.fire("client.recv")
        if rule is not None and rule.kind == "drop":
            self._teardown()
            raise _faults.InjectedFault(
                "injected connection drop at client.recv"
            )
        if self._reader is None:
            raise ConnectionResetError("connection is down")
        try:
            line = self._reader.readline()
        except ValueError as exc:  # reading a closed makefile()
            raise ConnectionResetError(f"connection closed: {exc}") from None
        if not line:
            raise ConnectionResetError("connection closed by server")
        try:
            response = json.loads(line)
        except ValueError as exc:
            # A torn response line is indistinguishable from a lost
            # connection: resynchronising mid-stream is impossible, so
            # treat it as one and let the retry layer resubmit.
            raise ConnectionResetError(
                f"unparsable response line: {exc}"
            ) from None
        if not isinstance(response, dict):
            raise ConnectionResetError(
                f"response must be a JSON object, got {type(response).__name__}"
            )
        return response

    def wait(self, request_id: str, deadline: Optional[float] = None) -> dict:
        """Block until the response with this ``id`` arrives.

        Responses for *other* outstanding requests that arrive first are
        buffered and returned by their own :meth:`wait` calls — that is
        what makes pipelining safe. Under a retrying policy, transport
        failures reconnect and re-submit all outstanding requests, and
        ``429``/``503`` responses back off and resend; ``deadline``
        (seconds, defaulting to the policy's) bounds the whole affair.
        Raises :class:`~repro.exceptions.ServiceError` when the budget
        is exhausted, with :attr:`pending` attached.
        """
        if request_id in self._responses:
            self._sent.pop(request_id, None)
            return self._responses.pop(request_id)
        policy = self._retry
        budget = deadline if deadline is not None else policy.deadline
        cutoff = None if budget is None else time.monotonic() + budget
        attempt = 0

        def out_of_budget() -> bool:
            return cutoff is not None and time.monotonic() >= cutoff

        def spend_retry(reason: str, exc: Optional[BaseException]) -> None:
            nonlocal attempt
            if attempt >= policy.retries or out_of_budget():
                raise ServiceError(
                    f"no response for request {request_id!r} after "
                    f"{attempt} retries"
                    + (f": {type(exc).__name__}: {exc}" if exc else ""),
                    pending=tuple(self._sent),
                ) from exc
            self._note_retry(reason)
            delay = policy.backoff(attempt, self._rng)
            if cutoff is not None:
                delay = min(delay, max(0.0, cutoff - time.monotonic()))
            time.sleep(delay)
            attempt += 1

        while True:
            if out_of_budget():
                raise ServiceError(
                    f"deadline of {budget}s exhausted waiting for "
                    f"request {request_id!r}",
                    pending=tuple(self._sent),
                )
            try:
                response = self._read_response()
            except OSError as exc:
                spend_retry("transport", exc)
                try:
                    self._reconnect_and_resubmit()
                except OSError:
                    pass  # next iteration fails fast and spends a retry
                continue
            response_id = response.get("id")
            code = response.get("code")
            if (
                policy.retry_rejected
                and code in (REJECTED, UNAVAILABLE)
                and isinstance(response_id, str)
                and response_id in self._sent
                and attempt < policy.retries
                and not out_of_budget()
            ):
                # The server said "not now" (queue full / draining):
                # back off and resend the same request id.
                reason = "rejected" if code == REJECTED else "unavailable"
                spend_retry(reason, None)
                try:
                    self._sock.sendall(
                        encode_message(self._sent[response_id]).encode("utf-8")
                    )
                except (OSError, AttributeError):
                    pass  # connection loss here is caught by the next read
                continue
            if response_id == request_id:
                self._sent.pop(request_id, None)
                return response
            if response_id is not None:
                self._sent.pop(str(response_id), None)
                self._responses[str(response_id)] = response

    def call(self, payload: dict) -> dict:
        """Send one request and block for its response."""
        return self.wait(self.send(payload))

    # -- operations ------------------------------------------------------------
    def send_solve(
        self,
        dimacs: Optional[str] = None,
        clauses=None,
        **options,
    ) -> str:
        """Pipeline one ``solve`` request; returns the ``id`` to wait on.

        Exactly one of ``dimacs`` (a DIMACS CNF string) or ``clauses``
        (signed-integer literal lists) describes the formula; ``options``
        are the remaining protocol fields (``solver``, ``assumptions``,
        ``timeout``, ``preprocess``, ``samples``, ``seed``, ``label``...).
        """
        payload = {"op": "solve", **options}
        if dimacs is not None:
            payload["dimacs"] = dimacs
        if clauses is not None:
            payload["clauses"] = [list(clause) for clause in clauses]
        return self.send(payload)

    def solve(
        self,
        dimacs: Optional[str] = None,
        clauses=None,
        **options,
    ) -> dict:
        """Solve one formula and return the full response dict.

        Raises :class:`ProtocolError` on any non-200 response (the
        server's error message and code are preserved); a 200 response is
        returned as-is, with ``result`` holding the outcome payload and
        ``from_cache`` / ``deduped`` telling how it was served.
        """
        response = self.wait(self.send_solve(dimacs=dimacs, clauses=clauses, **options))
        if response["code"] != OK:
            raise ProtocolError(
                response.get("error", "request failed"), code=response["code"]
            )
        return response

    def solve_many(self, requests: list[dict]) -> list[dict]:
        """Pipeline many ``solve`` payloads; responses in request order.

        Each element is a protocol payload minus the ``op`` (for example
        ``{"dimacs": text, "solver": "cdcl"}``). All requests are written
        before any response is read, so identical formulas in the batch
        exercise the server's in-flight deduplication.
        """
        ids = [self.send({"op": "solve", **request}) for request in requests]
        return [self.wait(request_id) for request_id in ids]

    def ping(self) -> bool:
        """Liveness probe; ``True`` when the server answers."""
        return self.call({"op": "ping"}).get("code") == OK

    def stats(self) -> dict:
        """The server's counters / queue depths / cache state snapshot."""
        response = self.call({"op": "stats"})
        if response["code"] != OK:
            raise ProtocolError(
                response.get("error", "stats failed"), code=response["code"]
            )
        return response["stats"]

    def shutdown(self) -> bool:
        """Ask the server to drain, compact its cache and exit."""
        return self.call({"op": "shutdown"}).get("code") == OK
