"""RUP/DRAT proof checking by unit propagation over the original formula.

The checker replays a DRAT proof against the formula it claims to refute.
Every *addition* must be redundant with respect to the clauses currently
active — first by RUP (assume the negation of the added clause, unit
propagate, and demand a conflict), falling back to RAT on the clause's
first literal (every resolvent on that pivot must itself be RUP).
*Deletions* simply shrink the active set, which only makes later checks
stricter to pass and is why standard DRAT checkers leave them unverified.
A proof is a *refutation* once it derives the empty clause.

The implementation favours clarity over raw speed — it is the trusted
half of the differential fuzz harness, not a competition checker — but
still uses watched-style occurrence indexing so fuzz-sized proofs check
in milliseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence, Union

from repro.cnf.formula import CNFFormula, is_tautology
from repro.exceptions import ProofError

__all__ = [
    "CheckResult",
    "ProofStep",
    "check_proof",
    "check_proof_file",
    "parse_proof",
    "parse_proof_file",
]

#: Verdict labels carried by :class:`CheckResult`.
VERIFIED = "VERIFIED"
REJECTED = "REJECTED"


@dataclass(frozen=True)
class ProofStep:
    """One parsed DRAT line: a clause addition or deletion."""

    delete: bool
    literals: tuple[int, ...]


@dataclass
class CheckResult:
    """Outcome of checking one proof against one formula."""

    verified: bool
    status: str
    reason: str = ""
    steps_checked: int = 0
    additions: int = 0
    deletions: int = 0
    incomplete: bool = False
    elapsed_seconds: float = 0.0
    failed_step: Optional[ProofStep] = None
    #: Kept for symmetry with other result objects' reprs.
    extras: dict = field(default_factory=dict, repr=False)

    def __bool__(self) -> bool:
        return self.verified


def parse_proof(text: Union[str, Iterable[str]]) -> tuple[list[ProofStep], bool]:
    """Parse DRAT text into steps, returning ``(steps, incomplete_flag)``.

    Raises :class:`~repro.exceptions.ProofError` on malformed input: a
    non-integer token, a line missing its ``0`` terminator (a torn final
    line from a killed writer), or a stray ``0`` mid-clause.  Comment
    lines are skipped, except that ``c incomplete`` sets the flag a
    truncated-by-timeout proof carries.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = list(text)
    steps: list[ProofStep] = []
    incomplete = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            body = line[1:].strip()
            if body == "incomplete" or body.startswith("incomplete "):
                incomplete = True
            continue
        tokens = line.split()
        delete = False
        if tokens[0] == "d":
            delete = True
            tokens = tokens[1:]
            if not tokens:
                raise ProofError(f"line {lineno}: deletion with no clause")
        literals: list[int] = []
        terminated = False
        for token in tokens:
            try:
                value = int(token)
            except ValueError:
                raise ProofError(
                    f"line {lineno}: bad token {token!r} in proof"
                ) from None
            if terminated:
                raise ProofError(f"line {lineno}: tokens after terminating 0")
            if value == 0:
                terminated = True
            else:
                literals.append(value)
        if not terminated:
            raise ProofError(
                f"line {lineno}: missing terminating 0 (torn proof line)"
            )
        steps.append(ProofStep(delete=delete, literals=tuple(literals)))
    return steps, incomplete


def parse_proof_file(path) -> tuple[list[ProofStep], bool]:
    """Parse the DRAT file at ``path`` (see :func:`parse_proof`)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProofError(f"cannot read proof file {path!s}: {exc}") from exc
    return parse_proof(text)


class _ClauseSet:
    """Active clauses with a literal-occurrence index for propagation."""

    def __init__(self) -> None:
        self.clauses: dict[int, tuple[int, ...]] = {}
        self.occurrences: dict[int, set[int]] = {}
        self.by_key: dict[frozenset, list[int]] = {}
        self.units: set[int] = set()
        self._next_id = 0

    def add(self, literals: Sequence[int]) -> None:
        cid = self._next_id
        self._next_id += 1
        clause = tuple(literals)
        self.clauses[cid] = clause
        self.by_key.setdefault(frozenset(clause), []).append(cid)
        if len(clause) == 1:
            self.units.add(cid)
        for lit in clause:
            self.occurrences.setdefault(lit, set()).add(cid)

    def remove(self, literals: Sequence[int]) -> bool:
        """Drop one copy of the clause; ``False`` when it is not active."""
        key = frozenset(literals)
        ids = self.by_key.get(key)
        if not ids:
            return False
        cid = ids.pop()
        if not ids:
            del self.by_key[key]
        clause = self.clauses.pop(cid)
        self.units.discard(cid)
        for lit in clause:
            occs = self.occurrences.get(lit)
            if occs is not None:
                occs.discard(cid)
        return True


def _propagate(clauses: _ClauseSet, assignment: dict[int, bool], queue: list[int]) -> bool:
    """Unit propagation; ``True`` when a conflict is reached.

    ``assignment`` maps variables to values and is extended in place;
    ``queue`` holds literals just made *false* (their negations were
    assigned true) whose occurrence lists must be rescanned.
    """
    head = 0
    while head < len(queue):
        falsified = queue[head]
        head += 1
        for cid in list(clauses.occurrences.get(falsified, ())):
            clause = clauses.clauses.get(cid)
            if clause is None:
                continue
            unassigned: Optional[int] = None
            satisfied = False
            for lit in clause:
                var = abs(lit)
                value = assignment.get(var)
                if value is None:
                    if unassigned is not None:
                        # Two free literals: clause cannot be unit yet.
                        unassigned = None
                        satisfied = True  # treat as not-unit; skip
                        break
                    unassigned = lit
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if unassigned is None:
                return True  # every literal false: conflict
            var = abs(unassigned)
            assignment[var] = unassigned > 0
            queue.append(-unassigned)
    return False


def _rup(clauses: _ClauseSet, literals: Sequence[int]) -> bool:
    """Whether ``literals`` has the RUP property over the active clauses."""
    assignment: dict[int, bool] = {}
    queue: list[int] = []
    for lit in literals:
        var = abs(lit)
        want = lit < 0  # assume the negation of the clause
        existing = assignment.get(var)
        if existing is None:
            assignment[var] = want
            queue.append(lit)  # lit itself is now false
        elif existing != want:
            return True  # the clause is a tautology: negation is contradictory
    # Seed with the database's unit clauses: propagation below only rescans
    # clauses touched by a newly falsified literal, so pre-existing units
    # (crucial for the final empty-clause step) must be enqueued here.
    for cid in clauses.units:
        clause = clauses.clauses.get(cid)
        if clause is None:
            continue
        unit = clause[0]
        var = abs(unit)
        value = assignment.get(var)
        if value is None:
            assignment[var] = unit > 0
            queue.append(-unit)
        elif value != (unit > 0):
            return True
    return _propagate(clauses, assignment, queue)


def _rat(clauses: _ClauseSet, literals: Sequence[int]) -> bool:
    """RAT check on the first literal of ``literals`` (the DRAT pivot)."""
    if not literals:
        return False
    pivot = literals[0]
    base = list(literals)
    for cid in list(clauses.occurrences.get(-pivot, ())):
        clause = clauses.clauses.get(cid)
        if clause is None:
            continue
        resolvent = base + [lit for lit in clause if lit != -pivot]
        if is_tautology(resolvent):
            continue
        if not _rup(clauses, resolvent):
            return False
    return True


def check_proof(
    formula: CNFFormula,
    proof: Union[str, Sequence[ProofStep], Iterable[str]],
    incomplete: bool = False,
) -> CheckResult:
    """Check a DRAT proof against ``formula``.

    ``proof`` is DRAT text, an iterable of DRAT lines, or pre-parsed
    :class:`ProofStep` objects (then ``incomplete`` carries the flag that
    parsing would otherwise extract).  The result is ``verified`` only
    when every addition is RUP or RAT *and* the proof derives the empty
    clause; a well-formed proof that stops short — e.g. one flagged
    ``incomplete`` by a timed-out solver — is rejected with a reason
    saying so.  Malformed text raises
    :class:`~repro.exceptions.ProofError` instead of returning.
    """
    from repro.telemetry import instrument as _telemetry

    if isinstance(proof, (str,)) or (
        not isinstance(proof, Sequence)
        or (len(proof) > 0 and not isinstance(proof[0], ProofStep))
    ):
        steps, parsed_incomplete = parse_proof(proof)  # type: ignore[arg-type]
        incomplete = incomplete or parsed_incomplete
    else:
        steps = list(proof)  # type: ignore[arg-type]

    started = time.perf_counter()
    with _telemetry.span("proof.check") as span:
        result = _check_steps(formula, steps, incomplete)
        result.elapsed_seconds = time.perf_counter() - started
        if span.recording:
            span.set(steps=result.steps_checked, verified=result.verified)
    if _telemetry.active():
        _telemetry.emit("repro_proof_checks_total", status=result.status)
        _telemetry.emit("repro_proof_check_steps_total", result.steps_checked)
        _telemetry.emit("repro_proof_check_seconds", result.elapsed_seconds)
    return result


def _check_steps(
    formula: CNFFormula, steps: Sequence[ProofStep], incomplete: bool
) -> CheckResult:
    active = _ClauseSet()
    for literals in formula.clauses:
        if not literals:
            # The formula already contains the empty clause: trivially UNSAT.
            return CheckResult(
                verified=True,
                status=VERIFIED,
                reason="formula contains the empty clause",
                incomplete=incomplete,
            )
        if is_tautology(literals):
            continue
        active.add(literals)

    additions = 0
    deletions = 0
    for index, step in enumerate(steps):
        if step.delete:
            deletions += 1
            # Deleting a clause never invalidates later checks; deleting
            # one that is not active (e.g. a tautology the checker never
            # tracked) is harmless and is ignored, like standard checkers.
            active.remove(step.literals)
            continue
        additions += 1
        if not step.literals:
            # Empty clause: the refutation is complete iff it is RUP.
            if _rup(active, ()):
                return CheckResult(
                    verified=True,
                    status=VERIFIED,
                    steps_checked=index + 1,
                    additions=additions,
                    deletions=deletions,
                    incomplete=incomplete,
                )
            return CheckResult(
                verified=False,
                status=REJECTED,
                reason=f"step {index + 1}: empty clause is not implied "
                "by unit propagation",
                steps_checked=index + 1,
                additions=additions,
                deletions=deletions,
                incomplete=incomplete,
                failed_step=step,
            )
        if is_tautology(step.literals):
            # Tautologies are trivially redundant; never tracked as active.
            continue
        if not _rup(active, step.literals) and not _rat(active, step.literals):
            return CheckResult(
                verified=False,
                status=REJECTED,
                reason=f"step {index + 1}: clause "
                f"{' '.join(map(str, step.literals))} 0 is neither RUP nor RAT",
                steps_checked=index + 1,
                additions=additions,
                deletions=deletions,
                incomplete=incomplete,
                failed_step=step,
            )
        active.add(step.literals)

    reason = "proof ends without deriving the empty clause"
    if incomplete:
        reason += " (proof is flagged incomplete)"
    return CheckResult(
        verified=False,
        status=REJECTED,
        reason=reason,
        steps_checked=len(steps),
        additions=additions,
        deletions=deletions,
        incomplete=incomplete,
    )


def check_proof_file(formula: CNFFormula, path) -> CheckResult:
    """Check the DRAT file at ``path`` against ``formula``."""
    steps, incomplete = parse_proof_file(path)
    return check_proof(formula, steps, incomplete=incomplete)
