"""Incremental solving sessions: add clauses, assume, push/pop, re-solve.

The paper's motivating EDA workloads — register-allocation k-sweeps,
equivalence checking — are *sequences* of closely related SAT queries. An
:class:`IncrementalSession` keeps solver state alive between those queries:

.. code-block:: python

    from repro.incremental import make_session

    session = make_session("cdcl", base_formula=formula)
    session.solve(assumptions=[3, -7])   # query 1
    session.add_clause([1, 2])           # strengthen the problem
    with session.scope():                # push ...
        session.add_clause([-1])
        session.solve()
    # ... pop: the scoped clause is retracted again
    session.solve()                      # query N, warm solver state

Two solver-backed implementations share the interface:

* :class:`CDCLSession` — native incremental CDCL. Learned clauses and
  VSIDS activities persist across calls, assumptions are temporary
  decisions inside one search (no formula rebuild, no restart from
  scratch).
* :class:`ResolveSession` — the generic fallback for every other
  registered solver (DPLL, WalkSAT, GSAT, brute force, hybrid, the NBL
  engines, ...): each query re-solves the accumulated formula with the
  assumptions appended as unit clauses. Same semantics, none of the
  warm-start benefit.

Sessions of the default ``"portfolio"`` spec and preprocessing sessions
answer each query as one runtime job instead
(:class:`repro.incremental.JobSession`).

Semantics shared by all sessions: ``solve(assumptions)`` is equivalent to
solving ``session.formula().with_assumptions(assumptions)`` from scratch — an
``UNSAT`` answer means *unsatisfiable under the assumptions*, and an
incomplete solver reports ``UNKNOWN`` instead of ``UNSAT``. The
differential fuzz suite (``tests/property/test_differential_fuzz.py``)
checks this equivalence across the whole solver stack.
"""

from __future__ import annotations

import abc
import contextlib
from typing import Iterable, Iterator, Optional, Sequence

from repro.cnf.formula import CNFFormula, canonical_clause
from repro.exceptions import SolverError
from repro.solvers.base import (
    SATSolver,
    SolverResult,
    SolverStats,
    check_assumption_literal,
)
from repro.telemetry import instrument as _telemetry


class IncrementalSession(abc.ABC):
    """Common interface of all incremental solving sessions.

    The session owns the clause ledger (a growing list plus a stack of
    scope marks), validates assumptions, verifies returned models and
    accumulates per-query work counters; subclasses supply the actual
    solving strategy via the ``_solve`` / ``_clause_added`` /
    ``_clauses_retracted`` hooks.

    Parameters
    ----------
    base_formula:
        Optional starting formula; its clauses seed the outermost scope.
    num_variables:
        Minimum variable universe (grows automatically as clauses or a
        larger ``base_formula`` arrive; it never shrinks, not even on
        ``pop``, so variable indices stay stable for the session's life).
    """

    #: Reported as :attr:`SolverResult.solver_name` on query results.
    solver_name: str = "abstract"

    def __init__(
        self,
        base_formula: Optional[CNFFormula] = None,
        num_variables: int = 0,
    ) -> None:
        if num_variables < 0:
            raise SolverError(
                f"num_variables must be non-negative, got {num_variables}"
            )
        self._clauses: list[tuple[int, ...]] = []
        self._marks: list[int] = []
        self._num_variables = int(num_variables)
        self._total_stats = SolverStats()
        self._num_queries = 0
        self._last_core: Optional[tuple[int, ...]] = None
        self._sync_variables()
        if base_formula is not None:
            self.add_formula(base_formula)

    # -- introspection ---------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Current size of the variable universe."""
        return self._num_variables

    @property
    def num_clauses(self) -> int:
        """Number of clauses currently asserted (all scopes)."""
        return len(self._clauses)

    @property
    def scope_depth(self) -> int:
        """How many ``push`` scopes are currently open."""
        return len(self._marks)

    @property
    def num_queries(self) -> int:
        """How many ``solve`` calls this session has answered."""
        return self._num_queries

    @property
    def total_stats(self) -> SolverStats:
        """Work counters accumulated over every query of this session."""
        return self._total_stats

    def formula(self) -> CNFFormula:
        """The currently asserted clause set as an immutable formula."""
        return CNFFormula(list(self._clauses), self._num_variables)

    # -- building the problem --------------------------------------------------
    def add_clause(self, clause: Iterable[int]) -> None:
        """Assert one clause (an iterable of DIMACS-signed ints)."""
        canonical = canonical_clause(clause)
        max_var = abs(canonical[-1]) if canonical else 0
        if max_var > self._num_variables:
            self._num_variables = max_var
            self._sync_variables()
        self._clauses.append(canonical)
        self._clause_added(canonical)

    def add_formula(self, formula: CNFFormula) -> None:
        """Assert every clause of ``formula`` (growing the universe first)."""
        if formula.num_variables > self._num_variables:
            self._num_variables = formula.num_variables
            self._sync_variables()
        for clause in formula:
            self.add_clause(clause)

    # -- scopes ----------------------------------------------------------------
    def push(self) -> int:
        """Open a retraction scope; returns the new scope depth."""
        self._marks.append(len(self._clauses))
        return len(self._marks)

    def pop(self) -> None:
        """Retract every clause asserted since the matching :meth:`push`."""
        if not self._marks:
            raise SolverError("pop() without a matching push()")
        mark = self._marks.pop()
        removed = self._clauses[mark:]
        del self._clauses[mark:]
        self._clauses_retracted(removed)

    @contextlib.contextmanager
    def scope(self) -> Iterator["IncrementalSession"]:
        """``with session.scope(): ...`` — push on entry, pop on exit."""
        self.push()
        try:
            yield self
        finally:
            self.pop()

    # -- solving ---------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        timeout: Optional[float] = None,
    ) -> SolverResult:
        """Solve the asserted clauses under temporary ``assumptions``.

        Parameters
        ----------
        assumptions:
            DIMACS-signed literals that must hold for this query only; they
            are *not* added to the clause set. ``UNSAT`` therefore means
            "unsatisfiable under these assumptions".
        timeout:
            Optional cooperative wall-clock budget in seconds (the NBL
            engines check it only before they start; their sample budget
            bounds the run).
        """
        validated = self._validate_assumptions(assumptions)
        session_span = _telemetry.span("session.solve")
        with session_span:
            if session_span.recording:
                session_span.set(
                    session=type(self).__name__,
                    solver=self.solver_name,
                    query=self._num_queries + 1,
                    assumptions=len(validated),
                    clauses=len(self._clauses),
                )
            result = self._solve(validated, timeout)
            result.solver_name = result.solver_name or self.solver_name
            if result.is_unsat:
                if result.core is None:
                    # Fallback for strategies without final-conflict
                    # analysis: the full assumption set is always a valid
                    # (if unminimized) failing core.
                    result.core = validated
                self._last_core = result.core
            else:
                self._last_core = None
            self._num_queries += 1
            self._accumulate(result.stats)
            if session_span.recording:
                session_span.set(status=result.status)
        if _telemetry.active():
            _telemetry.emit(
                "repro_session_queries_total",
                solver=result.solver_name,
                status=result.status,
            )
        if result.is_sat:
            self._verify_model(result, validated)
        return result

    def unsat_core(self) -> Optional[tuple[int, ...]]:
        """Failing assumption core of the most recent query.

        ``None`` unless the last :meth:`solve` answered UNSAT. For an
        UNSAT answer the core is a subset of that query's assumptions that
        is UNSAT together with the clause set — minimized by final-conflict
        analysis on :class:`CDCLSession`, the full assumption set on
        sessions without it — and the empty tuple when the refutation used
        no assumption. A clause set that is UNSAT whatever the assumptions
        can still report a non-empty core when the search refuted it
        through them.
        """
        return self._last_core

    def set_proof_log(self, log) -> None:
        """Attach a DRAT :class:`~repro.proofs.ProofLog` sink, if supported.

        Sessions over a registry solver accept a sink (a solver that is
        not proof-capable leaves it empty and flags it incomplete on its
        UNSAT verdicts). A :class:`~repro.incremental.JobSession` — the
        session of ``"portfolio"`` and of every ``preprocess=True`` spec —
        raises :class:`SolverError`; a proof of a preprocessed solve comes
        from ``SolveJob(preprocess=True, proof=path)``. The log records the
        derivations of subsequent queries; it stays checkable against the
        clause set in force at refutation time (with any assumptions of
        that query as unit clauses for re-solve sessions).
        """
        raise SolverError(
            f"{type(self).__name__} does not support proof logging"
        )

    # -- subclass hooks --------------------------------------------------------
    @abc.abstractmethod
    def _solve(
        self, assumptions: tuple[int, ...], timeout: Optional[float]
    ) -> SolverResult:
        """Strategy-specific solving of the current clause set."""

    def _clause_added(self, clause: tuple[int, ...]) -> None:
        """Called after each clause lands in the ledger."""

    def _clauses_retracted(self, removed: list[tuple[int, ...]]) -> None:
        """Called after ``pop`` removed ``removed`` from the ledger."""

    def _sync_variables(self) -> None:
        """Called whenever the variable universe grew."""

    # -- internals -------------------------------------------------------------
    def _validate_assumptions(
        self, assumptions: Sequence[int]
    ) -> tuple[int, ...]:
        seen: dict[int, None] = {}
        for lit in assumptions:
            check_assumption_literal(lit, self._num_variables)
            seen.setdefault(lit, None)
        return tuple(seen)

    def _accumulate(self, stats: SolverStats) -> None:
        total = self._total_stats
        total.decisions += stats.decisions
        total.propagations += stats.propagations
        total.conflicts += stats.conflicts
        total.learned_clauses += stats.learned_clauses
        total.restarts += stats.restarts
        total.flips += stats.flips
        total.evaluations += stats.evaluations
        total.elapsed_seconds += stats.elapsed_seconds

    def _verify_model(
        self, result: SolverResult, assumptions: tuple[int, ...]
    ) -> None:
        if result.assignment is None:
            raise SolverError(
                f"{result.solver_name} returned SAT without a model"
            )
        model = result.assignment.as_dict()
        for lit in assumptions:
            if model.get(abs(lit)) != (lit > 0):
                raise SolverError(
                    f"{result.solver_name} model violates assumption {lit}"
                )
        if not self.formula().evaluate(model):
            raise SolverError(
                f"{result.solver_name} returned a non-satisfying assignment"
            )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(solver={self.solver_name!r}, "
            f"clauses={self.num_clauses}, vars={self.num_variables}, "
            f"depth={self.scope_depth})"
        )


class ResolveSession(IncrementalSession):
    """Generic fallback session: re-solve the whole formula per query.

    Works with *any* :class:`~repro.solvers.base.SATSolver` (DPLL, WalkSAT,
    GSAT, brute force, hybrid, ...). Each ``solve`` rebuilds the formula,
    appends the assumptions as unit clauses and runs the wrapped solver from
    scratch — the session interface without the warm-start speedups of
    :class:`CDCLSession`. Incomplete solvers keep their semantics: they
    answer ``UNKNOWN``, never ``UNSAT``.
    """

    def __init__(
        self,
        solver: SATSolver,
        base_formula: Optional[CNFFormula] = None,
        num_variables: int = 0,
    ) -> None:
        if not isinstance(solver, SATSolver):
            raise SolverError(
                f"ResolveSession expects a SATSolver, got {type(solver).__name__}"
            )
        self._solver = solver
        self.solver_name = solver.name
        super().__init__(base_formula=base_formula, num_variables=num_variables)

    @property
    def solver(self) -> SATSolver:
        """The wrapped solver instance (reused across queries)."""
        return self._solver

    def set_proof_log(self, log) -> None:
        """Attach a persistent DRAT sink to the wrapped solver.

        Each query re-solves the accumulated formula with its assumptions
        appended as unit clauses, so a refutation recorded here checks
        against ``formula().with_assumptions(assumptions)`` of the query
        that produced it. Solvers that are not proof-capable leave the log
        empty (and flag it incomplete on their own UNSAT verdicts).
        """
        self._solver.set_proof_log(log)

    def _solve(
        self, assumptions: tuple[int, ...], timeout: Optional[float]
    ) -> SolverResult:
        strengthened = self.formula().with_assumptions(assumptions)
        return self._solver.solve(strengthened, timeout=timeout)


class CDCLSession(IncrementalSession):
    """Native incremental session on top of :class:`CDCLSolver`.

    Clauses attach directly to the solver's persistent database; learned
    clauses and VSIDS activities survive across queries, and assumptions are
    handled inside the search as temporary decisions. ``pop`` rebuilds the
    solver from the surviving problem clauses (learned clauses may depend on
    retracted ones, so they are dropped) while keeping the branching
    activities warm.
    """

    solver_name = "cdcl"

    def __init__(
        self,
        solver=None,
        base_formula: Optional[CNFFormula] = None,
        num_variables: int = 0,
    ) -> None:
        # Imported here so repro.solvers.base can import this module without
        # a cycle through the concrete solver.
        from repro.solvers.cdcl import CDCLSolver

        if solver is None:
            solver = CDCLSolver()
        if not isinstance(solver, CDCLSolver):
            raise SolverError(
                f"CDCLSession expects a CDCLSolver, got {type(solver).__name__}"
            )
        self._solver = solver
        self._solver.begin_incremental(0)
        super().__init__(base_formula=base_formula, num_variables=num_variables)

    @property
    def solver(self):
        """The wrapped incremental CDCL solver."""
        return self._solver

    def set_proof_log(self, log) -> None:
        """Attach a persistent DRAT sink to the incremental solver.

        Learned clauses and refutations of subsequent queries are recorded
        against the clause set in force when they are derived; UNSAT
        *under assumptions* emits no empty clause (the failing core is
        reported via :meth:`unsat_core` instead), so the log refutes the
        asserted clauses only when an assumption-free query (or a root
        conflict) ends in UNSAT. A ``pop`` rebuilds the clause database,
        after which earlier proof lines no longer apply to the new set.
        """
        self._solver.set_proof_log(log)

    def _sync_variables(self) -> None:
        self._solver.ensure_variables(self._num_variables)

    def _clause_added(self, clause: tuple[int, ...]) -> None:
        self._solver.attach_clause(clause)

    def _clauses_retracted(self, removed: list[tuple[int, ...]]) -> None:
        # Learned clauses are consequences of the *whole* database, possibly
        # including the retracted clauses — only a rebuild from the
        # survivors is sound. VSIDS activities carry over, so the rebuilt
        # solver still branches on historically useful variables first.
        self._solver.reset_clauses(keep_activity=True)
        self._solver.ensure_variables(self._num_variables)
        for clause in self._clauses:
            self._solver.attach_clause(clause)

    def _solve(
        self, assumptions: tuple[int, ...], timeout: Optional[float]
    ) -> SolverResult:
        return self._solver.solve_incremental(assumptions, timeout=timeout)
