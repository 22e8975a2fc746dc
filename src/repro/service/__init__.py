"""repro.service — the always-on solve server and its client.

The batch runner (:mod:`repro.runtime`) answers one CLI invocation and
exits; this package keeps the whole stack resident and serves *streams*
of DIMACS solve jobs over a newline-delimited JSON protocol:

* :mod:`repro.service.protocol` — the wire format: request parsing and
  validation, :class:`SolveJob` construction, response encoding, the
  ``200 / 400 / 429 / 500 / 503`` response codes;
* :mod:`repro.service.server` — :class:`SolveService`, the asyncio
  event loop: in-flight deduplication by fingerprint (concurrent
  identical jobs share one solve), admission control with bounded-queue
  backpressure (``429`` rejections), a
  :class:`~repro.runtime.shards.ShardedResultCache` front so verdicts
  are durable the moment they are acknowledged, graceful degradation
  when persistence fails (serve-without-persist, never a 500), bounded
  graceful drain on ``shutdown``/``SIGTERM`` (stragglers get a clean
  ``503``), and proof-directory passthrough so served UNSAT verdicts
  keep their DRAT receipts. Runs over a TCP socket (``serve_tcp``) or
  stdin/stdout (``serve_stdio``);
* :mod:`repro.service.client` — :class:`ServiceClient`, a small
  blocking client for scripting and tests (request pipelining
  included), with opt-in :class:`RetryPolicy` resilience: exponential
  backoff with full jitter, automatic reconnect and idempotent
  re-submission of outstanding requests.

Several servers may share one cache directory — every shard write
happens under a cross-process lease (:mod:`repro.runtime.locks`) — and
:mod:`repro.faults` can inject deterministic failures at the service's
IO boundaries for chaos testing (``repro serve --fault-plan``).

Execution sits on :class:`repro.runtime.pool.JobExecutor` — the same
submit/collect core the batch runner uses — so verdicts, seeds and
timeout semantics are identical whether a formula arrives via ``repro
batch`` or ``repro serve``.

The CLI front ends are ``repro serve`` and ``repro client``; the
protocol and operational notes live in ``docs/service.md``.

Quickstart::

    from repro.service import ServiceConfig, SolveService

    service = SolveService(ServiceConfig(workers=2, cache_dir="cache/"))
    service.run_tcp(host="127.0.0.1", port=9090)   # blocks until shutdown
"""

from repro.exceptions import ServiceError
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.protocol import (
    BAD_REQUEST,
    FAILED,
    OK,
    PROTOCOL_VERSION,
    REJECTED,
    TOO_LARGE,
    UNAVAILABLE,
    ProtocolError,
    build_job,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.server import ServiceConfig, ServiceStats, SolveService

__all__ = [
    "BAD_REQUEST",
    "FAILED",
    "OK",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REJECTED",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
    "SolveService",
    "TOO_LARGE",
    "UNAVAILABLE",
    "build_job",
    "encode_message",
    "error_response",
    "ok_response",
    "parse_request",
]
