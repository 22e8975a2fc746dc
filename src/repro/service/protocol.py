"""The solve service's wire protocol: newline-delimited JSON messages.

One request per line, one JSON object per request; one response per
request, also a single JSON line, matched to its request by ``id``.
Responses may arrive out of request order (the server solves
concurrently), which is what makes pipelining — write many requests,
then collect — worthwhile.

Request operations (the ``op`` field):

``solve``
    Solve one CNF instance. The formula arrives either as a DIMACS
    string (``dimacs``) or as signed-integer clauses (``clauses``, with
    optional ``num_variables``); the remaining fields mirror
    :class:`~repro.runtime.jobs.SolveJob` knobs and default to the
    server's configuration: ``solver``, ``assumptions``, ``timeout``,
    ``preprocess``, ``samples``, ``carrier``, ``seed``, ``label``.
``ping``
    Liveness probe; answered immediately.
``stats``
    Service counters, queue/in-flight depths, cache and shard state.
``shutdown``
    Acknowledge, finish in-flight work, compact the cache and exit.

Response codes (the ``code`` field) follow the HTTP idiom:

=====  =========================================================
200    request served; ``solve`` responses carry ``result`` (a
       :meth:`SolveOutcome.to_dict` payload), ``from_cache`` and
       ``deduped`` flags
400    malformed request (unparsable line, unknown op or field,
       bad formula, unknown solver spec, ...)
413    the request line was longer than 64 KiB (the server's
       ``MAX_REQUEST_BYTES``); the line was discarded unparsed, the
       response carries its ``id`` if the start of the line names one,
       and the connection stays open
429    rejected by admission control: the bounded queue was full —
       back off and resend
500    the service failed internally while handling the request
503    the server is shutting down and the request did not finish
       within its drain budget — the solve was abandoned cleanly
       and is safe to resend elsewhere
=====  =========================================================

Unknown request fields are rejected rather than ignored: a typo'd
``assumptoins`` silently changing the answer is exactly the kind of bug
a solve service must refuse to serve.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNFFormula
from repro.exceptions import ReproError
from repro.runtime.jobs import (
    NO_PROOF_SPECS,
    PORTFOLIO_SPEC,
    SolveJob,
    SolveOutcome,
    known_solver_specs,
)

#: Protocol schema version, included in ``stats`` responses so clients
#: can detect incompatible servers.
PROTOCOL_VERSION = 1

#: Response codes (HTTP-idiom).
OK = 200
BAD_REQUEST = 400
TOO_LARGE = 413
REJECTED = 429
FAILED = 500
UNAVAILABLE = 503

#: Request operations the server understands.
OPS = ("solve", "ping", "stats", "shutdown")

#: Fields a ``solve`` request may carry (anything else is a 400).
_SOLVE_FIELDS = frozenset(
    {
        "op",
        "id",
        "dimacs",
        "clauses",
        "num_variables",
        "solver",
        "assumptions",
        "timeout",
        "preprocess",
        "samples",
        "carrier",
        "seed",
        "label",
    }
)


class ProtocolError(ReproError):
    """A request the service must refuse, with its response code.

    ``code`` is :data:`BAD_REQUEST` for malformed requests and
    :data:`REJECTED` for admission-control refusals; the server turns
    the exception into the matching error response.
    """

    def __init__(self, message: str, code: int = BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class JobDefaults:
    """Server-side defaults applied to ``solve`` requests.

    One frozen bundle of the per-job knobs (solver spec, sample budget,
    carrier, timeout, preprocessing, proof directory) so
    :func:`build_job` stays a pure function of ``(payload, defaults)``.
    """

    solver: str = PORTFOLIO_SPEC
    samples: int = 200_000
    carrier: str = "uniform"
    timeout: Optional[float] = None
    preprocess: bool = False
    proof_dir: Optional[str] = None


def parse_request(line: str) -> dict:
    """One wire line -> a validated request dict (op checked, id optional).

    Raises :class:`ProtocolError` (code 400) for anything that is not a
    JSON object with a known ``op`` and a string ``id`` (when present).
    """
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"unparsable request line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {list(OPS)}")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError(f"request id must be a string, got {request_id!r}")
    return payload


def _require_number(payload: dict, field: str, positive: bool = False):
    value = payload[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{field!r} must be a number, got {value!r}")
    if positive and value <= 0:
        raise ProtocolError(f"{field!r} must be positive, got {value!r}")
    return value


def _build_formula(payload: dict) -> CNFFormula:
    has_dimacs = "dimacs" in payload
    has_clauses = "clauses" in payload
    if has_dimacs == has_clauses:
        raise ProtocolError(
            "a solve request needs exactly one of 'dimacs' or 'clauses'"
        )
    try:
        if has_dimacs:
            if not isinstance(payload["dimacs"], str):
                raise ProtocolError("'dimacs' must be a DIMACS CNF string")
            return parse_dimacs(payload["dimacs"])
        clauses = payload["clauses"]
        if not isinstance(clauses, list) or not all(
            isinstance(clause, list) for clause in clauses
        ):
            raise ProtocolError("'clauses' must be a list of literal lists")
        num_variables = None
        if "num_variables" in payload:
            num_variables = _require_number(
                payload, "num_variables", positive=True
            )
            if not isinstance(num_variables, int):
                raise ProtocolError("'num_variables' must be an integer")
        return CNFFormula.from_ints(clauses, num_variables=num_variables)
    except ProtocolError:
        raise
    except ReproError as exc:
        raise ProtocolError(f"bad formula: {exc}") from None


def build_job(payload: dict, defaults: JobDefaults) -> SolveJob:
    """A validated ``solve`` request -> the :class:`SolveJob` to execute.

    Every knob falls back to ``defaults`` (the server's configuration);
    the job's DRAT proof path is attached here when the server has a
    proof directory and the requested solver can emit derivations.
    Raises :class:`ProtocolError` (code 400) on any invalid field.
    """
    unknown = set(payload) - _SOLVE_FIELDS
    if unknown:
        raise ProtocolError(f"unknown request fields: {sorted(unknown)}")
    formula = _build_formula(payload)
    solver = payload.get("solver", defaults.solver)
    if solver not in known_solver_specs():
        raise ProtocolError(
            f"unknown solver spec {solver!r}; "
            f"available: {sorted(known_solver_specs())}"
        )
    assumptions = payload.get("assumptions", ())
    if not isinstance(assumptions, (list, tuple)):
        raise ProtocolError("'assumptions' must be a list of signed literals")
    timeout = defaults.timeout
    if "timeout" in payload:
        timeout = float(_require_number(payload, "timeout", positive=True))
    samples = defaults.samples
    if "samples" in payload:
        samples = _require_number(payload, "samples", positive=True)
        if not isinstance(samples, int):
            raise ProtocolError("'samples' must be an integer")
    seed = None
    if "seed" in payload:
        seed = _require_number(payload, "seed")
        if not isinstance(seed, int):
            raise ProtocolError("'seed' must be an integer")
    preprocess = payload.get("preprocess", defaults.preprocess)
    if not isinstance(preprocess, bool):
        raise ProtocolError(f"'preprocess' must be a boolean, got {preprocess!r}")
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise ProtocolError(f"'label' must be a string, got {label!r}")
    carrier = payload.get("carrier", defaults.carrier)
    if not isinstance(carrier, str):
        raise ProtocolError(f"'carrier' must be a string, got {carrier!r}")
    try:
        job = SolveJob(
            formula=formula,
            label=label,
            solver=solver,
            samples=samples,
            carrier=carrier,
            timeout=timeout,
            assumptions=tuple(assumptions),
            seed=seed,
            preprocess=preprocess,
        )
        if defaults.proof_dir is not None and solver not in NO_PROOF_SPECS:
            # Proof passthrough: classical solves get a DRAT receipt named
            # after the job id (fingerprint-derived, so concurrent
            # duplicates share one file — exactly like `batch --proof-dir`).
            job.proof = os.path.join(
                defaults.proof_dir, f"{job.job_id}.drat"
            )
        return job
    except ReproError as exc:
        raise ProtocolError(str(exc)) from None


def encode_message(message: dict) -> str:
    """A response/request dict -> one compact wire line (with newline)."""
    return json.dumps(message, separators=(",", ":")) + "\n"


def ok_response(
    request_id: str,
    outcome: SolveOutcome,
    from_cache: bool = False,
    deduped: bool = False,
) -> dict:
    """A ``200`` solve response carrying the outcome payload."""
    return {
        "id": request_id,
        "code": OK,
        "status": outcome.status,
        "from_cache": bool(from_cache),
        "deduped": bool(deduped),
        "result": outcome.to_dict(),
    }


def error_response(request_id: Optional[str], code: int, message: str) -> dict:
    """A non-200 response (400 malformed / 429 rejected / 500 failed / 503 draining)."""
    return {"id": request_id, "code": code, "error": message}
