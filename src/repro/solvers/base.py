"""Common interface of the baseline SAT solvers."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.exceptions import SolverError, SolverTimeoutError
from repro.telemetry import instrument as _telemetry

#: Possible solver verdicts. Incomplete solvers may return ``UNKNOWN``.
SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


def check_assumption_literal(lit: object, num_variables: int) -> int:
    """Validate one assumption literal against a variable universe.

    The single validator shared by the incremental solver and session
    layers: a literal must be a non-zero, non-bool DIMACS integer whose
    variable lies inside the universe. Returns the literal; raises
    :class:`SolverError` otherwise.
    """
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise SolverError(f"invalid assumption literal {lit!r}")
    if abs(lit) > num_variables:
        raise SolverError(
            f"assumption {lit} mentions x{abs(lit)} beyond the "
            f"{num_variables}-variable universe"
        )
    return lit


@dataclass
class SolverStats:
    """Work counters shared across solver families.

    Not every counter is meaningful for every solver; unused ones stay 0.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    flips: int = 0
    evaluations: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class SolverResult:
    """Outcome of one solver run.

    Attributes
    ----------
    status:
        ``"SAT"``, ``"UNSAT"`` or ``"UNKNOWN"`` (incomplete solvers only).
    assignment:
        A satisfying assignment when ``status == "SAT"`` (complete over all
        formula variables), else ``None``.
    stats:
        Work counters (decisions, propagations, conflicts, flips, ...).
    solver_name:
        Registry name of the solver that produced the result.
    """

    status: str
    assignment: Optional[Assignment] = None
    stats: SolverStats = field(default_factory=SolverStats)
    solver_name: str = ""
    #: ``True`` when the run ended because its wall-clock budget expired
    #: (the status is then ``UNKNOWN``).
    timed_out: bool = False
    #: Failing assumption core, set when the verdict is UNSAT *under
    #: assumptions*: a subset of the given assumptions that is UNSAT
    #: together with the formula, and the empty tuple when the refutation
    #: used no assumption (a formula UNSAT whatever the assumptions may
    #: still be refuted through them). ``None`` for every other run (no
    #: assumptions, or not UNSAT).
    core: Optional[tuple] = None

    @property
    def is_sat(self) -> bool:
        """``True`` when the verdict is SAT."""
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        """``True`` when the verdict is UNSAT."""
        return self.status == UNSAT

    def __str__(self) -> str:
        if self.is_sat:
            return f"{self.solver_name}: SAT ({self.assignment})"
        return f"{self.solver_name}: {self.status}"


class SATSolver(abc.ABC):
    """Abstract base class of every baseline solver."""

    #: Registry name, overridden by subclasses.
    name: str = "abstract"
    #: Whether the solver can prove unsatisfiability.
    complete: bool = True
    #: Whether the solver emits DRAT proof lines into an attached
    #: :class:`~repro.proofs.ProofLog` (see :meth:`set_proof_log`).
    proof_capable: bool = False
    #: The proof sink of the current run; ``None`` disables emission.
    _proof = None
    #: Cooperative wall-clock deadline (``time.monotonic()`` value) set by
    #: :meth:`solve` for the duration of one run; ``None`` means no budget.
    _deadline: Optional[float] = None

    def set_proof_log(self, log) -> None:
        """Attach a persistent :class:`~repro.proofs.ProofLog` sink.

        Emission is best-effort by solver: only :attr:`proof_capable`
        solvers write DRAT lines; for the rest the log simply stays empty
        (and :meth:`solve` flags it incomplete when such a solver produces
        the UNSAT verdict itself). ``None`` detaches the sink. A per-run
        log passed via ``solve(proof=...)`` temporarily shadows the one
        set here.
        """
        self._proof = log

    @abc.abstractmethod
    def _solve(self, formula: CNFFormula) -> SolverResult:
        """Solver-specific search; must fill status/assignment/stats."""

    def _check_timeout(self, stats: Optional[SolverStats] = None) -> None:
        """Raise :class:`SolverTimeoutError` once the run's budget expires.

        Subclasses call this from their inner search loops; the error carries
        the work counters accumulated so far so :meth:`solve` can report them
        on the resulting ``UNKNOWN`` verdict.
        """
        if self._deadline is not None and time.monotonic() >= self._deadline:
            error = SolverTimeoutError(f"{self.name} exceeded its time budget")
            error.stats = stats
            raise error

    def make_session(self, base_formula=None, num_variables: int = 0):
        """An :class:`~repro.incremental.IncrementalSession` over this solver.

        The default implementation is the generic re-solve fallback
        (:class:`repro.incremental.ResolveSession`): each ``solve`` call
        rebuilds the accumulated formula (plus one unit clause per
        assumption) and runs :meth:`solve` from scratch. Solvers with native
        incremental state (:class:`~repro.solvers.cdcl.CDCLSolver`) override
        this to retain learned clauses and heuristic scores across calls.
        """
        # Imported lazily: repro.incremental builds on this module.
        from repro.incremental.session import ResolveSession

        return ResolveSession(
            self, base_formula=base_formula, num_variables=num_variables
        )

    def solve(
        self,
        formula: CNFFormula,
        timeout: Optional[float] = None,
        proof=None,
    ) -> SolverResult:
        """Solve ``formula``, verify any returned model, and time the run.

        Parameters
        ----------
        formula:
            The CNF instance.
        timeout:
            Optional wall-clock budget in seconds. Enforcement is
            cooperative — solvers poll :meth:`_check_timeout` from their
            search loops — so the run may overshoot by one loop iteration.
            An expired budget yields an ``UNKNOWN`` result with
            ``timed_out=True`` rather than an exception.
        proof:
            A path or :class:`~repro.proofs.ProofLog` to record a DRAT
            proof into for this run. Proof-capable solvers (CDCL) write
            their derivations; a timed-out run flags the log
            ``incomplete``; and an UNSAT verdict produced by a solver
            that emits no lines is flagged the same way, so a complete
            proof never silently goes missing. A path is opened (and
            closed) here; an existing log is left open for its owner.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        from repro.proofs.log import resolve_proof_log

        proof_log, owns_proof = resolve_proof_log(proof)
        previous_proof = self._proof
        if proof_log is not None:
            self._proof = proof_log
        else:
            proof_log = self._proof  # a persistent sink set via set_proof_log
        self._deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        trace_span = _telemetry.span("solve")
        start = time.perf_counter()
        try:
            with trace_span:
                if trace_span.recording:
                    trace_span.set(
                        solver=self.name,
                        variables=formula.num_variables,
                        clauses=formula.num_clauses,
                    )
                try:
                    result = self._solve(formula)
                    if (
                        proof_log is not None
                        and result.status == UNSAT
                        and not self.proof_capable
                    ):
                        proof_log.mark_incomplete(f"{self.name} emits no proof lines")
                except SolverTimeoutError as exc:
                    stats = getattr(exc, "stats", None) or SolverStats()
                    result = SolverResult(UNKNOWN, None, stats, timed_out=True)
                    if proof_log is not None:
                        proof_log.mark_incomplete("timeout")
                # Stamp the elapsed time inside the span (and on every exit
                # path, the timeout branch included) so span duration and
                # stats agree.
                result.stats.elapsed_seconds = time.perf_counter() - start
                if trace_span.recording:
                    trace_span.set(
                        status=result.status,
                        timed_out=result.timed_out,
                        decisions=result.stats.decisions,
                        propagations=result.stats.propagations,
                        conflicts=result.stats.conflicts,
                        elapsed_seconds=result.stats.elapsed_seconds,
                    )
        finally:
            self._deadline = None
            self._proof = previous_proof
            if owns_proof and proof_log is not None:
                proof_log.close()
        result.solver_name = self.name
        if _telemetry.active():
            _telemetry.record_solve(self.name, result)
        if result.is_sat:
            if result.assignment is None:
                raise RuntimeError(f"{self.name} returned SAT without a model")
            if not formula.evaluate(result.assignment.as_dict()):
                raise RuntimeError(
                    f"{self.name} returned a non-satisfying assignment"
                )
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
