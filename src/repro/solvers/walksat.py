"""WalkSAT: stochastic local search (incomplete) baseline."""

from __future__ import annotations

from typing import Dict

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula, evaluate_clause
from repro.exceptions import SolverError
from repro.solvers.base import SAT, UNKNOWN, SATSolver, SolverResult, SolverStats
from repro.telemetry import instrument as _telemetry
from repro.utils.rng import SeedLike, as_generator


class WalkSATSolver(SATSolver):
    """WalkSAT with random restarts.

    In each step an unsatisfied clause is picked uniformly at random; with
    probability ``noise`` a random variable of that clause is flipped,
    otherwise the variable whose flip minimises the number of newly broken
    clauses is flipped (the classic "break-count" greedy move).

    Incomplete: returns ``SAT`` with a model, or ``UNKNOWN`` after the flip
    budget is exhausted — never ``UNSAT``.
    """

    name = "walksat"
    complete = False

    def __init__(
        self,
        max_flips: int = 2_000,
        max_tries: int = 5,
        noise: float = 0.5,
        seed: SeedLike = None,
    ) -> None:
        if max_flips <= 0 or max_tries <= 0:
            raise SolverError("max_flips and max_tries must be positive")
        if not 0.0 <= noise <= 1.0:
            raise SolverError(f"noise must lie in [0, 1], got {noise}")
        self._max_flips = max_flips
        self._max_tries = max_tries
        self._noise = noise
        self._rng = as_generator(seed)

    def _solve(self, formula: CNFFormula) -> SolverResult:
        stats = SolverStats()
        if formula.has_empty_clause():
            return SolverResult(UNKNOWN, None, stats)
        num_vars = formula.num_variables
        if num_vars == 0:
            return SolverResult(SAT, Assignment(), stats)

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
                unsatisfied = formula.unsatisfied_clauses(assignment)
                stats.evaluations += 1
                if not unsatisfied:
                    return SolverResult(SAT, Assignment(assignment), stats)
                clause = unsatisfied[int(self._rng.integers(0, len(unsatisfied)))]
                variables = sorted({abs(lit) for lit in clause})
                if self._rng.random() < self._noise:
                    variable = int(variables[int(self._rng.integers(0, len(variables)))])
                else:
                    variable = self._best_break_variable(formula, assignment, variables)
                assignment[variable] = not assignment[variable]
                stats.flips += 1
            # restart with a fresh random assignment
        return SolverResult(UNKNOWN, None, stats)

    def _best_break_variable(
        self,
        formula: CNFFormula,
        assignment: Dict[int, bool],
        candidates: list[int],
    ) -> int:
        """The candidate whose flip breaks the fewest currently satisfied clauses."""
        best_variable = candidates[0]
        best_break = None
        for variable in candidates:
            flipped = dict(assignment)
            flipped[variable] = not flipped[variable]
            break_count = 0
            for clause in formula:
                if variable not in clause and -variable not in clause:
                    continue
                if evaluate_clause(clause, assignment) and not evaluate_clause(
                    clause, flipped
                ):
                    break_count += 1
            if best_break is None or break_count < best_break:
                best_break = break_count
                best_variable = variable
        return best_variable
