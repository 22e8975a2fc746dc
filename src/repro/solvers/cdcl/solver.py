"""The public CDCL solver over the flat-arena kernel.

:class:`CDCLSolver` keeps the exact API contract of the pre-rewrite
solver — plain :meth:`~repro.solvers.base.SATSolver.solve`, the
incremental methods used by :class:`repro.incremental.CDCLSession`
(``begin_incremental`` / ``attach_clause`` / ``solve_incremental`` /
``reset_clauses`` / ``ensure_variables`` / ``root_unsat``), proof
emission, cooperative timeouts and telemetry — while delegating the
actual search to :class:`repro.solvers.cdcl.kernel.ArenaKernel`.

Soundness of state retention across incremental calls: a learned clause
is derived by resolution from clauses already in the database, so it is
a logical consequence of the problem clauses alone — never of the
assumptions in force when it was learned. Clause addition is monotone
(reduction only ever deletes *learned* clauses, which are consequences),
so every learned clause stays valid across :meth:`attach_clause` and any
later assumption set.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.exceptions import SolverError, SolverTimeoutError
from repro.telemetry import instrument as _telemetry
from repro.solvers.base import (
    SAT,
    UNKNOWN,
    UNSAT,
    SATSolver,
    SolverResult,
    SolverStats,
    check_assumption_literal,
)
from repro.solvers.cdcl.kernel import ArenaKernel
from repro.utils.gc_pause import paused_gc


class CDCLSolver(SATSolver):
    """Conflict-driven clause-learning solver on a flat clause arena.

    The hot path lives in :class:`~repro.solvers.cdcl.kernel.ArenaKernel`:
    two-watched-literal propagation over a single ``array('i')`` clause
    arena, first-UIP learning with LBD stamping, VSIDS branching through a
    lazy heap, phase saving, Luby restarts, and periodic learned-clause
    DB reduction with garbage compaction.

    Parameters
    ----------
    vsids_decay:
        Per-conflict VSIDS decay (0 < decay < 1; higher = longer memory).
        Implemented by scaling the bump increment, not by touching every
        activity.
    restart_base:
        The ``k``-th restart fires after ``restart_base * luby(k)``
        conflicts.
    max_conflicts:
        Hard cap on total conflicts per solve call; exceeding it raises
        :class:`SolverError` (defensive — the search is complete).
    reduce_interval:
        Conflicts between learned-clause DB reductions (0 disables).
    keep_lbd:
        Learned clauses with LBD at or below this are never deleted
        ("glue" clauses).
    """

    name = "cdcl"
    complete = True
    proof_capable = True

    def __init__(
        self,
        vsids_decay: float = 0.95,
        restart_base: int = 200,
        max_conflicts: int = 5_000_000,
        reduce_interval: int = 2000,
        keep_lbd: int = 2,
    ) -> None:
        if not 0.0 < vsids_decay < 1.0:
            raise SolverError("vsids_decay must lie in (0, 1)")
        if restart_base <= 0:
            raise SolverError("restart_base must be positive")
        if max_conflicts <= 0:
            raise SolverError("max_conflicts must be positive")
        if reduce_interval < 0:
            raise SolverError("reduce_interval must be non-negative")
        if keep_lbd < 0:
            raise SolverError("keep_lbd must be non-negative")
        self._decay = vsids_decay
        self._restart_base = restart_base
        self._max_conflicts = max_conflicts
        self._reduce_interval = reduce_interval
        self._keep_lbd = keep_lbd
        self._incremental = False
        self._num_vars = 0
        self._kernel: Optional[ArenaKernel] = None

    def _new_kernel(self, num_vars: int) -> ArenaKernel:
        return ArenaKernel(
            num_vars,
            decay=self._decay,
            restart_base=self._restart_base,
            max_conflicts=self._max_conflicts,
            reduce_interval=self._reduce_interval,
            keep_lbd=self._keep_lbd,
        )

    # -- public entry ------------------------------------------------------------
    def _solve(self, formula: CNFFormula) -> SolverResult:
        stats = SolverStats()
        self._incremental = False
        self._num_vars = formula.num_variables
        with paused_gc():
            kernel = self._kernel = self._new_kernel(formula.num_variables)
            kernel.proof = self._proof
            # Bulk load: no per-clause watch partitioning or value checks —
            # propagation repairs any watch transiently falsified by a unit
            # that is still pending (see ArenaKernel.load_clauses, which
            # also explains why tautologies need no filtering here).
            kernel.load_clauses(formula.clauses)
            if kernel.root_conflict:
                kernel.emit_empty()
                return SolverResult(UNSAT, None, stats)
            return self._run_search(stats, (), kernel)

    def _run_search(
        self, stats: SolverStats, assumptions: Sequence[int], kernel: ArenaKernel
    ) -> SolverResult:
        try:
            with paused_gc():
                status, model, core = kernel.search(
                    stats, assumptions, self._check_timeout, solver_name=self.name
                )
        finally:
            self._record_kernel_counters(stats)
        if status == SAT:
            return SolverResult(SAT, Assignment.from_trusted_model(model), stats)
        return SolverResult(UNSAT, None, stats, core=core)

    @staticmethod
    def _record_kernel_counters(stats: SolverStats) -> None:
        if _telemetry.active():
            _telemetry.emit("repro_cdcl_propagations_total", stats.propagations)

    # -- incremental API ---------------------------------------------------------
    def begin_incremental(self, num_variables: int = 0) -> None:
        """Switch into persistent mode with an empty clause database.

        After this call, :meth:`attach_clause` and :meth:`solve_incremental`
        operate on state retained across calls; a later plain :meth:`solve`
        discards that state again.
        """
        if num_variables < 0:
            raise SolverError(
                f"num_variables must be non-negative, got {num_variables}"
            )
        self._num_vars = num_variables
        self._kernel = self._new_kernel(num_variables)
        self._incremental = True

    def reset_clauses(self, keep_activity: bool = True) -> None:
        """Drop every clause (original and learned) but stay incremental.

        ``keep_activity`` preserves the VSIDS scores and saved phases so a
        rebuild after a scope pop still branches on historically active
        variables (with their last polarities) first. Used by
        :class:`repro.incremental.CDCLSession` to implement ``pop``
        soundly: learned clauses may depend on popped problem clauses, so
        they cannot survive a retraction.
        """
        self._require_incremental("reset_clauses")
        kernel = self._kernel
        activity = kernel.activity if keep_activity else None
        phase = kernel.phase if keep_activity else None
        kernel.reset(self._num_vars, activity=activity, phase=phase)

    def ensure_variables(self, num_variables: int) -> None:
        """Grow the variable universe to at least ``num_variables``."""
        self._require_incremental("ensure_variables")
        self._kernel.grow(num_variables)
        self._num_vars = self._kernel.num_vars

    def attach_clause(self, literals: Iterable[int]) -> None:
        """Add one clause (DIMACS-signed ints) to the persistent database.

        Tautologies are dropped, duplicate literals are removed, and the
        variable universe grows as needed. Adding a clause that is already
        falsified at the root level marks the whole database unsatisfiable
        (see :attr:`root_unsat`).
        """
        self._require_incremental("attach_clause")
        lits = self._normalise(literals)
        if lits is None:  # tautology
            return
        kernel = self._kernel
        if lits:
            kernel.grow(max(abs(lit) for lit in lits))
            self._num_vars = kernel.num_vars
        kernel.backjump(0)
        kernel.add_clause(lits)

    def solve_incremental(
        self,
        assumptions: Sequence[int] = (),
        timeout: Optional[float] = None,
    ) -> SolverResult:
        """Solve the persistent database under ``assumptions``.

        Assumptions are DIMACS-signed literals treated as temporary decisions
        for this call only: an ``UNSAT`` answer means *unsatisfiable under
        these assumptions* (unless :attr:`root_unsat` has become true, in
        which case the database itself is contradictory). Learned clauses
        and VSIDS activities persist into subsequent calls. Assumption
        enqueues are not counted in ``stats.decisions`` — that counter
        tracks heuristic branching only, so decision counts stay comparable
        with solving the assumption-strengthened formula from scratch.
        """
        self._require_incremental("solve_incremental")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        kernel = self._kernel
        assumptions = tuple(
            check_assumption_literal(lit, self._num_vars) for lit in assumptions
        )
        kernel.proof = self._proof
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
                        incremental=True,
                        assumptions=len(assumptions),
                    )
                try:
                    kernel.backjump(0)
                    if kernel.root_conflict:
                        kernel.emit_empty()
                        result = SolverResult(
                            UNSAT,
                            None,
                            SolverStats(),
                            core=() if assumptions else None,
                        )
                    else:
                        result = self._run_search(
                            SolverStats(), assumptions, kernel
                        )
                except SolverTimeoutError as exc:
                    stats = getattr(exc, "stats", None) or SolverStats()
                    result = SolverResult(UNKNOWN, None, stats, timed_out=True)
                    if self._proof is not None:
                        self._proof.mark_incomplete("timeout")
                result.stats.elapsed_seconds = time.perf_counter() - start
                if trace_span.recording:
                    trace_span.set(
                        status=result.status,
                        timed_out=result.timed_out,
                        conflicts=result.stats.conflicts,
                        elapsed_seconds=result.stats.elapsed_seconds,
                    )
        finally:
            self._deadline = None
        result.solver_name = self.name
        if _telemetry.active():
            _telemetry.record_solve(self.name, result)
        return result

    @property
    def root_unsat(self) -> bool:
        """``True`` once the clause database is contradictory at level 0."""
        kernel = self._kernel
        return kernel.root_conflict if kernel is not None else False

    def make_session(self, base_formula=None, num_variables: int = 0):
        """A native incremental session over a *fresh* solver clone.

        Overrides the generic re-solve fallback of
        :meth:`repro.solvers.base.SATSolver.make_session`: the session keeps
        learned clauses and branching activity across queries instead of
        restarting from scratch.
        """
        from repro.incremental.session import CDCLSession

        clone = CDCLSolver(
            vsids_decay=self._decay,
            restart_base=self._restart_base,
            max_conflicts=self._max_conflicts,
            reduce_interval=self._reduce_interval,
            keep_lbd=self._keep_lbd,
        )
        return CDCLSession(
            clone, base_formula=base_formula, num_variables=num_variables
        )

    # -- helpers -----------------------------------------------------------------
    def _require_incremental(self, method: str) -> None:
        if not self._incremental or self._kernel is None:
            raise SolverError(
                f"{method}() requires begin_incremental() to have been called"
            )

    @staticmethod
    def _normalise(literals: Iterable[int]) -> Optional[list]:
        """Dedupe a clause; ``None`` marks a tautology (to be dropped)."""
        seen = {}
        for lit in literals:
            if not isinstance(lit, int) or lit == 0:
                raise SolverError(f"invalid literal {lit!r} in clause")
            if seen.get(abs(lit), lit) != lit:
                return None
            seen[abs(lit)] = lit
        return list(seen.values())
