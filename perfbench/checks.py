"""Independent answer checks.

* SAT answers: the model is evaluated against the original DIMACS ints by
  :func:`satisfies`, which shares no code with the program under test.
* UNSAT answers: must match the manifest.  Instances are UNSAT by
  construction, or their status was certified once by a DRAT proof that
  ``repro.proofs`` accepts (:class:`Certificates`, cached per checkout).
* NBL verdicts: compared against the exact symbolic engine.

A mismatch is returned as a reason string; callers count it as a failed
operation and never drop it.
"""

from __future__ import annotations

import hashlib
import json
import os


def satisfies(clauses, model) -> bool:
    """Whether ``model`` satisfies every clause.

    ``model`` is a collection of signed DIMACS literals (the wire form of a
    SAT answer).  A literal missing from the model counts as false, so a
    partial model must still satisfy every clause to pass.
    """
    true_lits = set(model)
    for lit in true_lits:
        if -lit in true_lits:
            return False
    return all(any(lit in true_lits for lit in clause) for clause in clauses)


def clause_digest(num_variables: int, clauses) -> str:
    h = hashlib.sha256(f"p cnf {num_variables}\n".encode())
    for clause in clauses:
        h.update((" ".join(map(str, clause)) + "\n").encode())
    return h.hexdigest()


class Certificates:
    """DRAT-certified statuses of instances whose status is not known by construction.

    An instance is solved once with proof logging; an UNSAT result counts
    only if ``repro.proofs.check_proof`` verifies the proof against the
    instance, and a SAT result only if its model passes :func:`satisfies`.
    Results are cached in ``path`` (keyed by a digest of the clauses) so each
    instance is certified once per checkout.
    """

    def __init__(self, path: str):
        self._path = path
        self._known: dict[str, str] = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self._known = json.load(handle)

    def status(self, num_variables: int, clauses) -> str:
        key = clause_digest(num_variables, clauses)
        if key not in self._known:
            self._known[key] = certify(num_variables, clauses)
            os.makedirs(os.path.dirname(self._path) or ".", exist_ok=True)
            tmp = self._path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self._known, handle, indent=0, sort_keys=True)
            os.replace(tmp, self._path)
        return self._known[key]


def certify(num_variables: int, clauses) -> str:
    """``"SAT"`` or ``"UNSAT"`` with a checked witness, else ``"?"``."""
    from repro.cnf.formula import CNFFormula
    from repro.proofs import ProofLog, check_proof
    from repro.solvers.cdcl import CDCLSolver

    formula = CNFFormula.from_ints(clauses, num_variables)
    log = ProofLog()
    result = CDCLSolver().solve(formula, proof=log)
    if result.status == "SAT":
        model = [v if b else -v for v, b in result.assignment.as_dict().items()]
        return "SAT" if satisfies(clauses, model) else "?"
    if result.status == "UNSAT" and check_proof(formula, log.lines()).verified:
        return "UNSAT"
    return "?"


def check_verdict(status: str, model, clauses, expect: str) -> str:
    """``""`` when the answer is right, else the reason it is wrong.

    ``expect`` is the manifest status: ``SAT``/``UNSAT`` (by construction or
    certified) or ``?`` (unknown, so an UNSAT answer cannot be accepted).
    """
    if status == "SAT":
        if expect == "UNSAT":
            return "SAT answer on an UNSAT instance"
        if model is None or not satisfies(clauses, model):
            return "SAT model does not satisfy the formula"
        return ""
    if status == "UNSAT":
        if expect != "UNSAT":
            return f"UNSAT answer, manifest says {expect}"
        return ""
    return f"no verdict ({status})"
