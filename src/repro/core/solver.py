"""High-level facade: the :class:`NBLSATSolver`.

This is the main user-facing entry point of the library — it wraps engine
construction, Algorithm 1 and Algorithm 2 behind a two-method API:

.. code-block:: python

    from repro import NBLSATSolver
    from repro.cnf import CNFFormula

    formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
    solver = NBLSATSolver(engine="symbolic")
    print(solver.check(formula).satisfiable)       # Algorithm 1
    print(solver.solve(formula).assignment)        # Algorithm 1 + 2
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cnf.formula import CNFFormula
from repro.core.assignment import (
    find_satisfying_assignment,
    find_satisfying_cube,
)
from repro.core.checker import ENGINE_NAMES, make_engine
from repro.core.config import NBLConfig
from repro.core.result import AssignmentResult, CheckResult
from repro.exceptions import EngineError


class NBLSATSolver:
    """Facade combining the NBL-SAT check and assignment-determination algorithms.

    Parameters
    ----------
    engine:
        ``"sampled"`` (Monte-Carlo, the paper's simulated realization) or
        ``"symbolic"`` (exact infinite-observation limit).
    config:
        Shared engine configuration (carrier family, sample budget,
        thresholds, seed).

    Notes
    -----
    The solver is stateless across calls: each :meth:`check`/:meth:`solve`
    builds a fresh engine for the given formula, so one solver instance can
    be reused across many instances.
    """

    def __init__(
        self, engine: str = "sampled", config: Optional[NBLConfig] = None
    ) -> None:
        if engine not in ENGINE_NAMES:
            raise EngineError(
                f"unknown engine {engine!r}; available: {ENGINE_NAMES}"
            )
        self._engine_name = engine
        self._config = config

    @property
    def engine_name(self) -> str:
        """Which engine family this solver uses."""
        return self._engine_name

    @property
    def config(self) -> Optional[NBLConfig]:
        """The engine configuration (``None`` means engine defaults)."""
        return self._config

    def check(
        self,
        formula: CNFFormula,
        bindings: Optional[Mapping[int, bool]] = None,
    ) -> CheckResult:
        """Algorithm 1: decide SAT/UNSAT in a single NBL operation."""
        engine = make_engine(formula, self._engine_name, self._config)
        return engine.check(bindings)

    def solve(self, formula: CNFFormula, cube: bool = False) -> AssignmentResult:
        """Algorithm 1 + Algorithm 2: decide and, if SAT, return an assignment.

        Parameters
        ----------
        formula:
            The CNF instance.
        cube:
            When ``True``, use the cube variant (don't-care extraction).
        """
        engine = make_engine(formula, self._engine_name, self._config)
        finder = find_satisfying_cube if cube else find_satisfying_assignment
        return finder(engine)

    def __repr__(self) -> str:
        return f"NBLSATSolver(engine={self._engine_name!r})"
