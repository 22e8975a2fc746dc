"""Frozen pre-rewrite CDCL kernel, kept as a differential-testing oracle.

This is the per-clause-object CDCL implementation that preceded the flat
arena kernel (:mod:`repro.solvers.cdcl.kernel`), byte-for-byte except for
the class name, solver name, and the removal of the ``make_session``
override (sessions over the legacy solver use the generic re-solve
fallback). It is **not** registered in the solver registry and must not
grow features: its whole value is that it does not change, so
``tests/property/test_kernel_differential.py`` can fuzz the new kernel
against it (and against brute force) and attribute any disagreement to
the rewrite.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence

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


class LegacyCDCLSolver(SATSolver):
    """The pre-arena CDCL solver, frozen for differential testing.

    Same architecture as the rewritten :class:`repro.solvers.CDCLSolver`
    had before the arena kernel landed: two-watched-literal propagation
    over per-clause Python lists, first-UIP learning, VSIDS with an O(n)
    decay loop, phase saving, geometric restarts, no clause deletion.
    """

    name = "cdcl-legacy"
    complete = True
    proof_capable = True

    def __init__(
        self,
        vsids_decay: float = 0.95,
        restart_base: int = 100,
        restart_factor: float = 1.5,
        max_conflicts: int = 5_000_000,
    ) -> None:
        if not 0.0 < vsids_decay < 1.0:
            raise SolverError("vsids_decay must lie in (0, 1)")
        if restart_base <= 0 or restart_factor < 1.0:
            raise SolverError("invalid restart policy parameters")
        if max_conflicts <= 0:
            raise SolverError("max_conflicts must be positive")
        self._decay = vsids_decay
        self._restart_base = restart_base
        self._restart_factor = restart_factor
        self._max_conflicts = max_conflicts
        self._incremental = False
        self._num_vars = 0

    # -- public entry ------------------------------------------------------------
    def _solve(self, formula: CNFFormula) -> SolverResult:
        stats = SolverStats()
        self._incremental = False
        self._init_state(formula.num_variables)
        for clause in formula:
            if clause.is_tautology():
                continue
            self._attach(clause.to_ints())
            if self._root_conflict:
                self._emit_empty_clause()
                return SolverResult(UNSAT, None, stats)
        return self._search(stats, ())

    # -- proof emission ----------------------------------------------------------
    def _emit_learned(self, learned: Sequence[int]) -> None:
        if self._proof is not None:
            self._proof.add(learned)

    def _emit_empty_clause(self) -> None:
        if self._proof is not None and not self._emitted_empty:
            self._emitted_empty = True
            self._proof.add(())

    # -- incremental API ---------------------------------------------------------
    def begin_incremental(self, num_variables: int = 0) -> None:
        """Switch into persistent mode with an empty clause database."""
        if num_variables < 0:
            raise SolverError(
                f"num_variables must be non-negative, got {num_variables}"
            )
        self._init_state(num_variables)
        self._incremental = True

    def reset_clauses(self, keep_activity: bool = True) -> None:
        """Drop every clause (original and learned) but stay incremental."""
        self._require_incremental("reset_clauses")
        activity = self._activity if keep_activity else None
        phase = self._phase if keep_activity else None
        self._init_state(self._num_vars)
        if activity is not None:
            self._activity = activity
            self._phase = phase
        self._incremental = True

    def ensure_variables(self, num_variables: int) -> None:
        """Grow the variable universe to at least ``num_variables``."""
        self._require_incremental("ensure_variables")
        self._grow(num_variables)

    def attach_clause(self, literals: Iterable[int]) -> None:
        """Add one clause (DIMACS-signed ints) to the persistent database."""
        self._require_incremental("attach_clause")
        lits = self._normalise(literals)
        if lits is None:  # tautology
            return
        if lits:
            self._grow(max(abs(lit) for lit in lits))
        self._backjump(0)
        self._attach(lits)

    def solve_incremental(
        self,
        assumptions: Sequence[int] = (),
        timeout: Optional[float] = None,
    ) -> SolverResult:
        """Solve the persistent database under ``assumptions``."""
        self._require_incremental("solve_incremental")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        assumptions = tuple(
            check_assumption_literal(lit, self._num_vars) for lit in assumptions
        )
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
                    self._backjump(0)
                    if self._root_conflict:
                        self._emit_empty_clause()
                        result = SolverResult(
                            UNSAT,
                            None,
                            SolverStats(),
                            core=() if assumptions else None,
                        )
                    else:
                        result = self._search(SolverStats(), assumptions)
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
        return getattr(self, "_root_conflict", False)

    # -- state management ---------------------------------------------------------
    def _require_incremental(self, method: str) -> None:
        if not self._incremental:
            raise SolverError(
                f"{method}() requires begin_incremental() to have been called"
            )

    def _init_state(self, num_vars: int) -> None:
        self._num_vars = num_vars
        self._assign: List[int] = [0] * (num_vars + 1)  # 0 / +1 / -1
        self._level: List[int] = [0] * (num_vars + 1)
        self._reason: List[Optional[int]] = [None] * (num_vars + 1)
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._activity: List[float] = [0.0] * (num_vars + 1)
        self._phase: List[bool] = [False] * (num_vars + 1)
        self._clauses: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}
        self._propagate_head = 0
        self._root_conflict = False
        self._emitted_empty = False

    def _grow(self, num_vars: int) -> None:
        if num_vars <= self._num_vars:
            return
        extra = num_vars - self._num_vars
        self._assign.extend([0] * extra)
        self._level.extend([0] * extra)
        self._reason.extend([None] * extra)
        self._activity.extend([0.0] * extra)
        self._phase.extend([False] * extra)
        self._num_vars = num_vars

    @staticmethod
    def _normalise(literals: Iterable[int]) -> Optional[List[int]]:
        seen: Dict[int, int] = {}
        for lit in literals:
            if not isinstance(lit, int) or lit == 0:
                raise SolverError(f"invalid literal {lit!r} in clause")
            if seen.get(abs(lit), lit) != lit:
                return None
            seen[abs(lit)] = lit
        return list(seen.values())

    def _attach(self, lits: List[int]) -> None:
        if self._root_conflict:
            return
        if not lits:
            self._root_conflict = True
            return
        if len(lits) == 1:
            value = self._value(lits[0])
            if value == -1:
                self._root_conflict = True
            elif value == 0:
                self._enqueue(lits[0], None)
            return
        lits = sorted(lits, key=lambda lit: self._value(lit) == -1)
        if self._value(lits[0]) == -1:
            self._root_conflict = True
            return
        self._clauses.append(lits)
        index = len(self._clauses) - 1
        self._watch(lits[0], index)
        self._watch(lits[1], index)
        if self._value(lits[1]) == -1 and self._value(lits[0]) == 0:
            self._enqueue(lits[0], index)

    # -- main search loop ----------------------------------------------------------
    def _search(
        self, stats: SolverStats, assumptions: Sequence[int]
    ) -> SolverResult:
        conflicts_until_restart = self._restart_base
        conflicts_since_restart = 0

        while True:
            self._check_timeout(stats)
            if _telemetry.tracing_active():
                before = stats.propagations
                with _telemetry.span("propagate") as prop_span:
                    conflict = self._propagate(stats)
                    prop_span.set(
                        assigned=stats.propagations - before,
                        conflict=conflict is not None,
                    )
            else:
                conflict = self._propagate(stats)
            if conflict is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if stats.conflicts > self._max_conflicts:
                    raise SolverError(
                        f"CDCL exceeded the conflict cap of {self._max_conflicts}"
                    )
                if self._decision_level() == 0:
                    self._root_conflict = True
                    self._emit_empty_clause()
                    return SolverResult(
                        UNSAT, None, stats, core=() if assumptions else None
                    )
                learned, backjump_level = self._analyze(conflict)
                self._backjump(backjump_level)
                self._add_learned(learned, stats)
                self._decay_activities()
                if conflicts_since_restart >= conflicts_until_restart:
                    stats.restarts += 1
                    if _telemetry.tracing_active():
                        _telemetry.event(
                            "restart",
                            number=stats.restarts,
                            conflicts=stats.conflicts,
                            interval=conflicts_until_restart,
                        )
                    if _telemetry.active():
                        _telemetry.emit(
                            "repro_learned_db_clauses",
                            len(self._clauses),
                            solver=self.name,
                        )
                    conflicts_since_restart = 0
                    conflicts_until_restart = int(
                        conflicts_until_restart * self._restart_factor
                    )
                    self._backjump(0)
                continue

            next_assumption = None
            falsified_assumption = None
            for lit in assumptions:
                value = self._value(lit)
                if value == -1:
                    falsified_assumption = lit
                    break
                if value == 0:
                    next_assumption = lit
                    break
            if falsified_assumption is not None:
                core = self._analyze_final(falsified_assumption)
                return SolverResult(UNSAT, None, stats, core=core)
            if next_assumption is not None:
                self._trail_lim.append(len(self._trail))
                self._enqueue(next_assumption, None)
                continue

            if len(self._trail) == self._num_vars:
                model = Assignment(
                    {v: self._assign[v] > 0 for v in range(1, self._num_vars + 1)}
                )
                return SolverResult(SAT, model, stats)

            variable = self._pick_branch_variable()
            stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(
                variable if self._phase[variable] else -variable, None
            )

    # -- low-level helpers --------------------------------------------------------
    def _value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        if value == 0:
            return 0
        return value if lit > 0 else -value

    def _watch(self, lit: int, clause_index: int) -> None:
        self._watches.setdefault(lit, []).append(clause_index)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        variable = abs(lit)
        self._assign[variable] = 1 if lit > 0 else -1
        self._level[variable] = self._decision_level()
        self._reason[variable] = reason
        self._trail.append(lit)

    def _propagate(self, stats: SolverStats) -> Optional[int]:
        while self._propagate_head < len(self._trail):
            lit = self._trail[self._propagate_head]
            self._propagate_head += 1
            stats.propagations += 1
            falsified = -lit
            watchers = self._watches.get(falsified, [])
            index = 0
            while index < len(watchers):
                clause_index = watchers[index]
                lits = self._clauses[clause_index]
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                if self._value(lits[0]) == 1:
                    index += 1
                    continue
                replacement = None
                for position in range(2, len(lits)):
                    if self._value(lits[position]) != -1:
                        replacement = position
                        break
                if replacement is not None:
                    lits[1], lits[replacement] = lits[replacement], lits[1]
                    watchers[index] = watchers[-1]
                    watchers.pop()
                    self._watch(lits[1], clause_index)
                    continue
                if self._value(lits[0]) == -1:
                    return clause_index
                self._enqueue(lits[0], clause_index)
                index += 1
        return None

    def _analyze(self, conflict_index: int) -> tuple:
        current_level = self._decision_level()
        learned: List[int] = []
        seen = [False] * len(self._assign)
        counter = 0
        lit = 0
        clause = self._clauses[conflict_index]
        trail_index = len(self._trail) - 1

        while True:
            for reason_lit in clause:
                variable = abs(reason_lit)
                if reason_lit == lit or seen[variable]:
                    continue
                if self._level[variable] == 0:
                    continue
                seen[variable] = True
                self._bump_activity(variable)
                if self._level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(reason_lit)
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            lit = -self._trail[trail_index]
            variable = abs(lit)
            seen[variable] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            reason_index = self._reason[variable]
            if reason_index is None:  # pragma: no cover - defensive
                break
            clause = self._clauses[reason_index]

        learned.insert(0, lit)
        if len(learned) == 1:
            return learned, 0
        backjump = max(self._level[abs(l)] for l in learned[1:])
        return learned, backjump

    def _backjump(self, level: int) -> None:
        while self._trail_lim and self._decision_level() > level:
            boundary = self._trail_lim.pop()
            while len(self._trail) > boundary:
                lit = self._trail.pop()
                variable = abs(lit)
                self._phase[variable] = self._assign[variable] > 0
                self._assign[variable] = 0
                self._reason[variable] = None
        self._propagate_head = min(self._propagate_head, len(self._trail))

    def _analyze_final(self, falsified: int) -> tuple:
        if self._decision_level() == 0:
            return (falsified,)
        seen = [False] * (self._num_vars + 1)
        seen[abs(falsified)] = True
        core = {falsified}
        for position in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[position]
            variable = abs(lit)
            if not seen[variable]:
                continue
            reason_index = self._reason[variable]
            if reason_index is None:
                core.add(lit)
            else:
                for reason_lit in self._clauses[reason_index]:
                    reason_var = abs(reason_lit)
                    if reason_var != variable and self._level[reason_var] > 0:
                        seen[reason_var] = True
            seen[variable] = False
        return tuple(sorted(core, key=abs))

    def _add_learned(self, learned: List[int], stats: SolverStats) -> None:
        stats.learned_clauses += 1
        self._emit_learned(learned)
        asserting = learned[0]
        if len(learned) == 1:
            if self._value(asserting) == 0:
                self._enqueue(asserting, None)
            return
        second = max(range(1, len(learned)), key=lambda i: self._level[abs(learned[i])])
        learned[1], learned[second] = learned[second], learned[1]
        self._clauses.append(learned)
        clause_index = len(self._clauses) - 1
        self._watch(learned[0], clause_index)
        self._watch(learned[1], clause_index)
        self._enqueue(asserting, clause_index)

    # -- branching ------------------------------------------------------------------
    def _bump_activity(self, variable: int) -> None:
        self._activity[variable] += 1.0

    def _decay_activities(self) -> None:
        for variable in range(1, len(self._activity)):
            self._activity[variable] *= self._decay

    def _pick_branch_variable(self) -> int:
        best_variable = 0
        best_activity = -1.0
        for variable in range(1, self._num_vars + 1):
            if self._assign[variable] == 0 and self._activity[variable] > best_activity:
                best_variable = variable
                best_activity = self._activity[variable]
        if best_variable == 0:  # pragma: no cover - defensive
            raise SolverError("no unassigned variable available for branching")
        return best_variable
