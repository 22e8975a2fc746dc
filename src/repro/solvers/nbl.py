"""The NBL engines as registry solvers: ``"nbl-symbolic"``, ``"nbl-sampled"``.

Kept apart from :mod:`repro.core.solver`, so importing the facade does
not import the classical solver stack.
"""

from __future__ import annotations

from repro.cnf.formula import CNFFormula
from repro.core.config import NBLConfig
from repro.core.result import CheckResult
from repro.core.solver import NBLSATSolver
from repro.noise.base import carrier_from_name
from repro.solvers.base import SAT, UNKNOWN, UNSAT, SATSolver, SolverResult, SolverStats
from repro.utils.rng import SeedLike


class NBLEngineSolver(SATSolver):
    """One NBL engine behind the :class:`~repro.solvers.base.SATSolver` contract.

    Each run is Algorithm 1 + 2 through :class:`NBLSATSolver`: SAT only
    with a verified model, UNSAT only from a complete (exact) engine,
    UNKNOWN otherwise. ``samples`` is the budget per check and bounds the
    run; the cooperative timeout is checked once, before the engine starts.
    """

    #: :data:`repro.core.checker.ENGINE_NAMES` entry, set by subclasses.
    engine: str = "abstract"

    def __init__(
        self, samples: int = 200_000, carrier: str = "uniform", seed: SeedLike = None
    ) -> None:
        self._config = NBLConfig(
            carrier=carrier_from_name(carrier),
            max_samples=samples,
            block_size=min(20_000, samples),
            seed=seed,
        )

    def check(self, formula: CNFFormula) -> CheckResult:
        """Algorithm 1 alone: one NBL check of ``formula``, no assignment."""
        return NBLSATSolver(self.engine, self._config).check(formula)

    def _solve(self, formula: CNFFormula) -> SolverResult:
        self._check_timeout()
        solution = NBLSATSolver(self.engine, self._config).solve(formula)
        stats = SolverStats(evaluations=solution.total_samples)
        if solution.satisfiable:
            if solution.verified and solution.assignment is not None:
                return SolverResult(SAT, solution.assignment, stats)
            return SolverResult(UNKNOWN, None, stats)
        return SolverResult(UNSAT if self.complete else UNKNOWN, None, stats)


class SymbolicNBLSolver(NBLEngineSolver):
    """The exact (infinite-observation) engine: its UNSAT verdict stands."""

    name = "nbl-symbolic"
    engine = "symbolic"
    complete = True


class SampledNBLSolver(NBLEngineSolver):
    """The Monte-Carlo engine: a statistical UNSAT is reported as UNKNOWN."""

    name = "nbl-sampled"
    engine = "sampled"
    complete = False
