"""GSAT: greedy local search (incomplete) baseline."""

from __future__ import annotations

from typing import Dict

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula, evaluate_clause
from repro.exceptions import SolverError
from repro.solvers.base import SAT, UNKNOWN, SATSolver, SolverResult, SolverStats
from repro.telemetry import instrument as _telemetry
from repro.utils.rng import SeedLike, as_generator


class GSATSolver(SATSolver):
    """GSAT: repeatedly flip the variable that maximally increases the number
    of satisfied clauses, with occasional random walk moves to escape plateaus.

    Incomplete: returns ``SAT`` or ``UNKNOWN``.
    """

    name = "gsat"
    complete = False

    def __init__(
        self,
        max_flips: int = 2_000,
        max_tries: int = 5,
        walk_probability: float = 0.1,
        seed: SeedLike = None,
    ) -> None:
        if max_flips <= 0 or max_tries <= 0:
            raise SolverError("max_flips and max_tries must be positive")
        if not 0.0 <= walk_probability <= 1.0:
            raise SolverError(
                f"walk_probability must lie in [0, 1], got {walk_probability}"
            )
        self._max_flips = max_flips
        self._max_tries = max_tries
        self._walk_probability = walk_probability
        self._rng = as_generator(seed)

    def _num_satisfied(self, formula: CNFFormula, assignment: Dict[int, bool]) -> int:
        return sum(1 for clause in formula if evaluate_clause(clause, assignment))

    def _solve(self, formula: CNFFormula) -> SolverResult:
        stats = SolverStats()
        if formula.has_empty_clause():
            return SolverResult(UNKNOWN, None, stats)
        num_vars = formula.num_variables
        if num_vars == 0:
            return SolverResult(SAT, Assignment(), stats)
        total_clauses = formula.num_clauses

        for _ in range(self._max_tries):
            stats.restarts += 1
            if _telemetry.tracing_active():
                _telemetry.event(
                    "restart", attempt=stats.restarts, flips=stats.flips
                )
            assignment: Dict[int, bool] = {
                v: bool(self._rng.integers(0, 2)) for v in range(1, num_vars + 1)
            }
            for _ in range(self._max_flips):
                self._check_timeout(stats)
                satisfied = self._num_satisfied(formula, assignment)
                stats.evaluations += 1
                if satisfied == total_clauses:
                    return SolverResult(SAT, Assignment(assignment), stats)
                if self._rng.random() < self._walk_probability:
                    variable = int(self._rng.integers(1, num_vars + 1))
                else:
                    variable = self._best_flip(formula, assignment, num_vars)
                assignment[variable] = not assignment[variable]
                stats.flips += 1
        return SolverResult(UNKNOWN, None, stats)

    def _best_flip(
        self, formula: CNFFormula, assignment: Dict[int, bool], num_vars: int
    ) -> int:
        """The variable whose flip yields the highest satisfied-clause count."""
        best_variable = 1
        best_score = -1
        for variable in range(1, num_vars + 1):
            flipped = dict(assignment)
            flipped[variable] = not flipped[variable]
            score = self._num_satisfied(formula, flipped)
            if score > best_score:
                best_score = score
                best_variable = variable
        return best_variable
