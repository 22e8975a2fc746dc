"""Unit tests of the RUP/DRAT checker (:mod:`repro.proofs.check`).

Positive and negative paths alike: correct refutations verify, while
corrupted, truncated, reordered and delete-too-early proofs are rejected
with a step-level reason — the guarantees the differential fuzz harness
and the ``repro check-proof`` exit codes build on.
"""

from __future__ import annotations

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.structured import pigeonhole_formula
from repro.exceptions import ProofError
from repro.proofs import (
    ProofLog,
    ProofStep,
    check_proof,
    check_proof_file,
    parse_proof,
    parse_proof_file,
)

#: (x1 | x2) & (x1 | ~x2) & (~x1 | x2) & (~x1 | ~x2): minimal UNSAT core.
FOUR_CLAUSE_UNSAT = CNFFormula.from_ints([[1, 2], [1, -2], [-1, 2], [-1, -2]], 2)
#: A correct RUP refutation of it.
GOOD_PROOF = "1 0\n-1 0\n0\n"


class TestParseProof:
    def test_parses_additions_deletions_comments(self):
        steps, incomplete = parse_proof("c header\n1 -2 0\nd 1 -2 0\n0\n")
        assert steps == [
            ProofStep(delete=False, literals=(1, -2)),
            ProofStep(delete=True, literals=(1, -2)),
            ProofStep(delete=False, literals=()),
        ]
        assert incomplete is False

    def test_incomplete_comment_sets_flag(self):
        steps, incomplete = parse_proof("1 0\nc incomplete timeout\n")
        assert len(steps) == 1
        assert incomplete is True

    def test_accepts_iterable_of_lines(self):
        steps, _ = parse_proof(["1 0", "", "d 1 0"])
        assert len(steps) == 2

    def test_torn_line_rejected(self):
        with pytest.raises(ProofError, match="torn"):
            parse_proof("1 0\n-1 2")

    def test_bad_token_rejected(self):
        with pytest.raises(ProofError, match="bad token"):
            parse_proof("1 x 0\n")

    def test_tokens_after_terminator_rejected(self):
        with pytest.raises(ProofError, match="after terminating"):
            parse_proof("1 0 2\n")

    def test_bare_deletion_rejected(self):
        with pytest.raises(ProofError, match="deletion"):
            parse_proof("d\n")

    def test_file_roundtrip_and_missing_file(self, tmp_path):
        path = tmp_path / "p.drat"
        path.write_text(GOOD_PROOF)
        steps, incomplete = parse_proof_file(path)
        assert len(steps) == 3 and incomplete is False
        with pytest.raises(ProofError, match="cannot read"):
            parse_proof_file(tmp_path / "missing.drat")


class TestCheckProof:
    def test_correct_refutation_verifies(self):
        result = check_proof(FOUR_CLAUSE_UNSAT, GOOD_PROOF)
        assert result
        assert result.status == "VERIFIED"
        assert result.steps_checked == 3
        assert result.additions == 3

    def test_deletions_do_not_break_verification(self):
        proof = "1 0\nd 1 2 0\nd 1 -2 0\n-1 0\n0\n"
        assert check_proof(FOUR_CLAUSE_UNSAT, proof)

    def test_no_empty_clause_rejected(self):
        result = check_proof(FOUR_CLAUSE_UNSAT, "1 0\n-1 0\n")
        assert not result
        assert "without deriving the empty clause" in result.reason

    def test_premature_empty_clause_rejected(self):
        result = check_proof(FOUR_CLAUSE_UNSAT, "0\n")
        assert not result
        assert result.failed_step == ProofStep(delete=False, literals=())

    def test_reordered_proof_rejected(self):
        # The empty clause moved to the front: nothing implies it yet.
        result = check_proof(FOUR_CLAUSE_UNSAT, "0\n1 0\n-1 0\n")
        assert not result
        assert result.steps_checked == 1

    def test_non_rup_addition_rejected(self):
        # On a satisfiable formula no unit is implied, so "1 0" is neither
        # RUP nor RAT (clauses with -1 exist and resolve to non-RUP).
        satisfiable = CNFFormula.from_ints([[1, 2], [-1, 2], [-1, -2]], 2)
        result = check_proof(satisfiable, "2 0\n1 0\n0\n")
        assert not result
        assert "neither RUP nor RAT" in result.reason
        assert result.failed_step == ProofStep(delete=False, literals=(1,))

    def test_delete_then_rely_rejected(self):
        # Deleting "1 2" first removes the clause the first step needs.
        proof = "d 1 2 0\n1 0\n-1 0\n0\n"
        assert not check_proof(FOUR_CLAUSE_UNSAT, proof)

    def test_rat_addition_accepted(self):
        # x3 is a fresh variable: "3 0" has no resolution partners on -3,
        # so it is vacuously RAT even though it is not RUP.
        formula = CNFFormula.from_ints([[1, 2], [1, -2], [-1, 2], [-1, -2]], 3)
        assert check_proof(formula, "3 0\n1 0\n-1 0\n0\n")

    def test_incomplete_flag_carried_into_rejection(self):
        result = check_proof(FOUR_CLAUSE_UNSAT, "1 0\nc incomplete timeout\n")
        assert not result
        assert result.incomplete is True
        assert "incomplete" in result.reason

    def test_empty_clause_in_formula_trivially_verified(self):
        formula = CNFFormula.from_ints([[1], []], 1)
        assert check_proof(formula, "")

    def test_preparsed_steps_accepted(self):
        steps, incomplete = parse_proof(GOOD_PROOF)
        assert check_proof(FOUR_CLAUSE_UNSAT, steps, incomplete=incomplete)

    def test_check_proof_file(self, tmp_path):
        path = tmp_path / "good.drat"
        path.write_text(GOOD_PROOF)
        assert check_proof_file(FOUR_CLAUSE_UNSAT, path)


class TestEndToEnd:
    def test_cdcl_proof_roundtrip(self):
        from repro.solvers.registry import make_solver

        formula = pigeonhole_formula(4, 3)
        log = ProofLog()
        result = make_solver("cdcl").solve(formula, proof=log)
        assert result.is_unsat
        verdict = check_proof(formula, log.text())
        assert verdict, verdict.reason

    def test_preprocessed_cdcl_proof_roundtrip(self, tmp_path):
        from repro.runtime import SolveJob, execute_job

        formula = pigeonhole_formula(5, 4)
        path = str(tmp_path / "php.drat")
        outcome = execute_job(
            SolveJob(formula=formula, solver="cdcl", preprocess=True, proof=path)
        )
        assert outcome.status == "UNSAT"
        verdict = check_proof_file(formula, path)
        assert verdict, verdict.reason

    def test_corrupted_real_proof_rejects(self):
        """Tampering with a real CDCL proof must not survive checking."""
        from repro.solvers.registry import make_solver

        formula = pigeonhole_formula(4, 3)
        log = ProofLog()
        make_solver("cdcl").solve(formula, proof=log)
        lines = log.lines()
        assert lines[-1] == "0"
        # Strip the derivation: the bare empty clause is not implied by
        # unit propagation over PHP(4,3) alone.
        assert not check_proof(formula, "0\n")
        # Reorder: moving the empty clause to the front asks it to be
        # implied before any learned clause exists.
        assert not check_proof(formula, "\n".join(["0"] + lines[:-1]) + "\n")
        # Truncate: dropping the final step leaves no refutation.
        assert not check_proof(formula, "\n".join(lines[:-1]) + "\n")

    def test_proof_check_telemetry(self):
        from repro import telemetry

        telemetry.enable_metrics()
        try:
            check_proof(FOUR_CLAUSE_UNSAT, GOOD_PROOF)
            snapshot = telemetry.get_metrics().to_json()
            assert "repro_proof_checks_total" in snapshot
            assert "repro_proof_check_seconds" in snapshot
        finally:
            telemetry.disable_metrics()
