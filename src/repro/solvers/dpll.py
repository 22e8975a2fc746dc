"""DPLL: the classic complete backtracking SAT procedure.

Davis-Putnam-Logemann-Loveland search with unit propagation, pure-literal
elimination and a pluggable branching heuristic. This is the "traditional
approach" the paper contrasts NBL-SAT against (one candidate assignment at a
time, backtracking on conflicts), and it is also the CPU-side solver of the
hybrid engine (:mod:`repro.hybrid`), whose NBL coprocessor supplies the
branching heuristic.

The two simplification steps the search runs at every node,
:func:`unit_propagate` and :func:`pure_literal_eliminate`, live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.exceptions import SolverError
from repro.solvers.base import SAT, UNSAT, SATSolver, SolverResult, SolverStats
from repro.telemetry import instrument as _telemetry


@dataclass
class SimplificationResult:
    """Outcome of a simplification pass.

    Attributes
    ----------
    formula:
        The simplified formula (same variable numbering as the input).
    forced:
        Variable bindings implied by the simplification (unit clauses and
        pure literals).
    conflict:
        ``True`` when simplification derived the empty clause, i.e. the input
        (under the already-forced bindings) is unsatisfiable.
    """

    formula: CNFFormula
    forced: Dict[int, bool] = field(default_factory=dict)
    conflict: bool = False


def unit_propagate(
    formula: CNFFormula, assignment: Optional[Dict[int, bool]] = None
) -> SimplificationResult:
    """Repeatedly assign the literal of every unit clause.

    Parameters
    ----------
    formula:
        The formula to propagate over.
    assignment:
        Optional pre-existing bindings to start from (not mutated).

    Returns
    -------
    SimplificationResult
        The residual formula, the accumulated forced bindings (including the
        ones passed in) and a conflict flag.
    """
    forced: Dict[int, bool] = dict(assignment or {})
    current = formula
    for variable, value in list(forced.items()):
        current = current.condition(variable, value)

    while True:
        if current.has_empty_clause():
            return SimplificationResult(current, forced, conflict=True)
        unit = next((clause[0] for clause in current if len(clause) == 1), None)
        if unit is None:
            return SimplificationResult(current, forced, conflict=False)
        forced[abs(unit)] = unit > 0
        current = current.condition(abs(unit), unit > 0)


def pure_literal_eliminate(formula: CNFFormula) -> SimplificationResult:
    """Bind every variable that appears with a single polarity.

    A *pure* literal can always be set true without losing satisfiability, so
    every clause containing it is removed.
    """
    polarity_seen: Dict[int, set[bool]] = {}
    for clause in formula:
        for lit in clause:
            polarity_seen.setdefault(abs(lit), set()).add(lit > 0)

    forced: Dict[int, bool] = {
        var: next(iter(pols)) for var, pols in polarity_seen.items() if len(pols) == 1
    }
    current = formula
    for variable, value in forced.items():
        current = current.condition(variable, value)
    conflict = current.has_empty_clause()
    return SimplificationResult(current, forced, conflict)


#: A branching heuristic maps (residual formula, current bindings) to a
#: (variable, first_value) decision, or ``None`` to fall back to the default.
BranchingHeuristic = Callable[[CNFFormula, Dict[int, bool]], Optional[tuple[int, bool]]]


def most_frequent_variable(
    formula: CNFFormula, _assignment: Dict[int, bool]
) -> Optional[tuple[int, bool]]:
    """Default heuristic: branch on the most frequent unassigned variable.

    The first value tried is the polarity with which the variable occurs
    more often (a cheap Jeroslow-Wang-flavoured choice).
    """
    counts: Dict[int, int] = {}
    positive_counts: Dict[int, int] = {}
    for clause in formula:
        for lit in clause:
            variable = abs(lit)
            counts[variable] = counts.get(variable, 0) + 1
            if lit > 0:
                positive_counts[variable] = positive_counts.get(variable, 0) + 1
    if not counts:
        return None
    variable = max(counts, key=lambda v: (counts[v], -v))
    prefer_true = positive_counts.get(variable, 0) * 2 >= counts[variable]
    return variable, prefer_true


class DPLLSolver(SATSolver):
    """Complete DPLL search.

    Parameters
    ----------
    branching:
        Optional branching heuristic; the hybrid solver injects the NBL-
        coprocessor-guided one here.
    use_pure_literals:
        Disable to measure the effect of pure-literal elimination.
    max_decisions:
        Safety cap; exceeding it raises :class:`SolverError` (the search is
        exhaustive, so this only matters for adversarially large inputs).
    """

    name = "dpll"
    complete = True

    def __init__(
        self,
        branching: Optional[BranchingHeuristic] = None,
        use_pure_literals: bool = True,
        max_decisions: int = 10_000_000,
    ) -> None:
        if max_decisions <= 0:
            raise SolverError("max_decisions must be positive")
        self._branching = branching or most_frequent_variable
        self._use_pure_literals = use_pure_literals
        self._max_decisions = max_decisions

    def _solve(self, formula: CNFFormula) -> SolverResult:
        stats = SolverStats()
        model = self._search(formula, {}, stats)
        if model is None:
            return SolverResult(UNSAT, None, stats)
        # Unconstrained variables default to False to complete the model.
        complete = {
            var: model.get(var, False)
            for var in range(1, formula.num_variables + 1)
        }
        return SolverResult(SAT, Assignment(complete), stats)

    # -- recursive search ------------------------------------------------------
    def _search(
        self,
        formula: CNFFormula,
        assignment: Dict[int, bool],
        stats: SolverStats,
    ) -> Optional[Dict[int, bool]]:
        self._check_timeout(stats)
        unit_result = unit_propagate(formula)
        stats.propagations += len(unit_result.forced)
        if _telemetry.tracing_active():
            _telemetry.event(
                "propagate",
                forced=len(unit_result.forced),
                conflict=unit_result.conflict,
            )
        assignment = {**assignment, **unit_result.forced}
        if unit_result.conflict:
            stats.conflicts += 1
            return None
        formula = unit_result.formula

        if self._use_pure_literals:
            pure_result = pure_literal_eliminate(formula)
            stats.propagations += len(pure_result.forced)
            assignment = {**assignment, **pure_result.forced}
            if pure_result.conflict:
                stats.conflicts += 1
                return None
            formula = pure_result.formula

        if formula.num_clauses == 0:
            return assignment
        if formula.has_empty_clause():
            stats.conflicts += 1
            return None

        decision = self._branching(formula, assignment)
        if decision is None:
            decision = most_frequent_variable(formula, assignment)
        if decision is None:
            # No unassigned variable left in any clause yet clauses remain:
            # they must all be empty, handled above; defensive fallback.
            stats.conflicts += 1
            return None
        variable, first_value = decision

        for value in (first_value, not first_value):
            stats.decisions += 1
            if stats.decisions > self._max_decisions:
                raise SolverError(
                    f"DPLL exceeded the decision cap of {self._max_decisions}"
                )
            result = self._search(
                formula.condition(variable, value),
                {**assignment, variable: value},
                stats,
            )
            if result is not None:
                return result
        return None
