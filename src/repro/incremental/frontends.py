"""The portfolio's session frontend, and the factory for every runtime spec.

Registry solvers (the NBL engines included) get their sessions through
:meth:`repro.solvers.base.SATSolver.make_session`; the portfolio is the one
runtime spec that is not a :class:`SATSolver`.
"""

from __future__ import annotations

from typing import Optional

from repro.cnf.formula import CNFFormula
from repro.exceptions import SolverError
from repro.incremental.session import IncrementalSession
from repro.runtime.jobs import NBL_SPECS, PORTFOLIO_SPEC
from repro.runtime.portfolio import PortfolioSolver, make_spec_solver
from repro.solvers.base import SolverResult, SolverStats


class PortfolioSession(IncrementalSession):
    """Re-solve session that races the portfolio roster per query.

    ``solve`` hands the accumulated formula plus the query's assumptions to
    :meth:`repro.runtime.portfolio.PortfolioSolver.solve`; the full
    :class:`~repro.runtime.portfolio.PortfolioResult` of the latest query
    (per-contender timings and verdicts) stays available as
    :attr:`last_result`.
    """

    solver_name = "portfolio"

    def __init__(
        self,
        portfolio=None,
        base_formula: Optional[CNFFormula] = None,
        num_variables: int = 0,
        seed: Optional[int] = None,
    ) -> None:
        self._portfolio = portfolio if portfolio is not None else PortfolioSolver()
        self._seed = seed
        self.last_result = None
        super().__init__(base_formula=base_formula, num_variables=num_variables)

    def _solve(
        self, assumptions: tuple[int, ...], timeout: Optional[float]
    ) -> SolverResult:
        race = self._portfolio.solve(
            self.formula(),
            seed=self._seed,
            timeout=timeout,
            assumptions=assumptions,
        )
        self.last_result = race
        stats = SolverStats(
            evaluations=race.samples_used,
            elapsed_seconds=race.elapsed_seconds,
        )
        result = SolverResult(
            race.status, race.assignment, stats, timed_out=race.timed_out
        )
        if race.winner:
            result.solver_name = f"portfolio:{race.winner}"
        return result


def make_session(
    solver: str = "cdcl",
    base_formula: Optional[CNFFormula] = None,
    num_variables: int = 0,
    seed: Optional[int] = None,
    samples: int = 200_000,
    carrier: str = "uniform",
    preprocess=None,
) -> IncrementalSession:
    """Build an incremental session for any runtime solver spec.

    Parameters
    ----------
    solver:
        ``"portfolio"`` or any registry solver name (``"cdcl"`` gets the
        native incremental session, everything else — the NBL engines
        ``"nbl-symbolic"``/``"nbl-sampled"`` included — the generic
        re-solve fallback).
    base_formula / num_variables:
        Initial problem (see :class:`IncrementalSession`).
    seed:
        Seed for stochastic solvers (WalkSAT, GSAT, the sampled engine,
        the portfolio's stochastic contenders).
    samples / carrier:
        Sampled-NBL engine budget and carrier family.
    preprocess:
        ``True`` or a :class:`~repro.preprocess.Preprocessor` to run the
        inprocessing pipeline per query with the query's assumption
        variables frozen. Not for the NBL and portfolio specs — they get
        preprocessing through the batch runtime
        (``SolveJob(preprocess=True)``) instead; requesting it here for
        them raises :class:`~repro.exceptions.SolverError`. The ``"cdcl"``
        spec falls back to the generic re-solve session when preprocessing
        is requested (per-query inprocessing is incompatible with retained
        native solver state).
    """
    if preprocess and (solver in NBL_SPECS or solver == PORTFOLIO_SPEC):
        raise SolverError(
            f"preprocess= is not supported for {solver!r} sessions; use a "
            "registry solver spec, or SolveJob(preprocess=True) in the "
            "batch runtime"
        )
    if solver == PORTFOLIO_SPEC:
        return PortfolioSession(
            PortfolioSolver(samples=samples, carrier=carrier),
            base_formula=base_formula,
            num_variables=num_variables,
            seed=seed,
        )
    instance = make_spec_solver(solver, seed, samples, carrier)
    return instance.make_session(
        base_formula=base_formula,
        num_variables=num_variables,
        preprocess=preprocess,
    )
