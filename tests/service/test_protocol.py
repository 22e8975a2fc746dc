"""Tests for repro.service.protocol: parsing, validation, encoding."""

from __future__ import annotations

import json

import pytest

from repro.service.protocol import (
    BAD_REQUEST,
    OK,
    REJECTED,
    JobDefaults,
    ProtocolError,
    build_job,
    encode_message,
    error_response,
    known_solver_specs,
    ok_response,
    parse_request,
)
from repro.runtime.jobs import SolveOutcome

DIMACS = "p cnf 2 2\n1 2 0\n-1 0\n"


class TestParseRequest:
    def test_valid(self):
        payload = parse_request('{"op": "ping", "id": "a"}')
        assert payload == {"op": "ping", "id": "a"}

    def test_id_optional(self):
        assert parse_request('{"op": "stats"}')["op"] == "stats"

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"op": "fly"}',
            '{"no_op": 1}',
            '{"op": "ping", "id": 7}',
        ],
    )
    def test_invalid_is_400(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == BAD_REQUEST


class TestBuildJob:
    def test_dimacs_with_defaults(self):
        job = build_job({"op": "solve", "dimacs": DIMACS}, JobDefaults())
        assert job.formula.num_variables == 2
        assert job.solver == "portfolio"
        assert not job.preprocess

    def test_clauses_form(self):
        job = build_job(
            {"op": "solve", "clauses": [[1, 2], [-1]], "num_variables": 3},
            JobDefaults(),
        )
        assert job.formula.num_variables == 3

    def test_field_overrides(self):
        job = build_job(
            {
                "op": "solve",
                "dimacs": DIMACS,
                "solver": "cdcl",
                "assumptions": [2],
                "timeout": 1.5,
                "samples": 1000,
                "seed": 42,
                "preprocess": True,
                "label": "mine",
            },
            JobDefaults(),
        )
        assert job.solver == "cdcl" and job.assumptions == (2,)
        assert job.timeout == 1.5 and job.samples == 1000
        assert job.seed == 42 and job.preprocess and job.label == "mine"

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "solve"},  # no formula
            {"op": "solve", "dimacs": DIMACS, "clauses": [[1]]},  # both
            {"op": "solve", "dimacs": 3},
            {"op": "solve", "dimacs": "p cnf oops"},
            {"op": "solve", "clauses": "nope"},
            {"op": "solve", "clauses": [[True, 2]]},  # bool is not a literal
            {"op": "solve", "clauses": [["1"]]},
            {"op": "solve", "clauses": [[None]]},
            {"op": "solve", "clauses": [[[1]]]},
            {"op": "solve", "clauses": [[{"a": 1}]]},
            {"op": "solve", "dimacs": DIMACS, "solver": "unknown-solver"},
            {"op": "solve", "dimacs": DIMACS, "assumptoins": [1]},  # typo
            {"op": "solve", "dimacs": DIMACS, "timeout": -1},
            {"op": "solve", "dimacs": DIMACS, "timeout": "fast"},
            {"op": "solve", "dimacs": DIMACS, "samples": 1.5},
            {"op": "solve", "dimacs": DIMACS, "seed": "x"},
            {"op": "solve", "dimacs": DIMACS, "preprocess": "yes"},
            {"op": "solve", "dimacs": DIMACS, "label": 7},
            {"op": "solve", "dimacs": DIMACS, "assumptions": [0]},
            {"op": "solve", "dimacs": DIMACS, "assumptions": [99]},  # out of range
        ],
    )
    def test_invalid_is_400(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            build_job(payload, JobDefaults())
        assert excinfo.value.code == BAD_REQUEST

    def test_proof_dir_attaches_for_classical(self, tmp_path):
        defaults = JobDefaults(proof_dir=str(tmp_path))
        job = build_job(
            {"op": "solve", "dimacs": DIMACS, "solver": "cdcl"}, defaults
        )
        assert job.proof is not None and job.proof.endswith(".drat")
        assert job.proof.startswith(str(tmp_path))

    def test_proof_dir_skipped_for_portfolio_and_nbl(self, tmp_path):
        defaults = JobDefaults(proof_dir=str(tmp_path))
        for solver in ("portfolio", "nbl-symbolic"):
            job = build_job(
                {"op": "solve", "dimacs": DIMACS, "solver": solver}, defaults
            )
            assert job.proof is None

    def test_known_specs_include_all_frontends(self):
        specs = known_solver_specs()
        assert {"portfolio", "nbl-symbolic", "nbl-sampled", "cdcl"} <= specs


class TestEncoding:
    def test_encode_message_single_line(self):
        text = encode_message({"id": "a", "code": OK})
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert json.loads(text) == {"id": "a", "code": OK}

    def test_ok_response_shape(self):
        outcome = SolveOutcome(
            job_id="j", status="SAT", solver="cdcl", fingerprint="fp",
            verified=True, assignment=(1,),
        )
        response = ok_response("req-1", outcome, from_cache=True)
        assert response["code"] == OK and response["status"] == "SAT"
        assert response["from_cache"] and not response["deduped"]
        assert response["result"]["fingerprint"] == "fp"

    def test_error_response_shape(self):
        response = error_response("req-2", REJECTED, "queue full")
        assert response == {"id": "req-2", "code": REJECTED, "error": "queue full"}
