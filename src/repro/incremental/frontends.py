"""The job-backed session, and the factory for every runtime spec.

Registry solvers (the NBL engines included) get their sessions through
:meth:`repro.solvers.base.SATSolver.make_session`. Sessions of the
default ``"portfolio"`` spec and preprocessing sessions instead answer
each query as one runtime job, so the per-query solver selection and
preprocess-then-solve are each decided in one place:
:func:`repro.runtime.pool.execute_job`.
"""

from __future__ import annotations

from typing import Optional

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.exceptions import SolverError
from repro.incremental.session import IncrementalSession
from repro.runtime.jobs import (
    ERROR,
    PORTFOLIO_SPEC,
    SolveJob,
    known_solver_specs,
    make_spec_solver,
)
from repro.runtime.pool import execute_job
from repro.solvers.base import SolverResult, SolverStats


class JobSession(IncrementalSession):
    """Re-solve session that runs each query as one :class:`SolveJob`.

    ``solve`` hands the accumulated formula and the query's assumptions to
    :func:`repro.runtime.pool.execute_job`, the path the batch runtime and
    the solve service take. With ``preprocess`` the job freezes the
    assumption variables, solves the residual and maps the model and the
    failing core back to the session's numbering; the pipeline's
    refutations are sound, so even an incomplete spec may then answer
    ``UNSAT``. The full
    :class:`~repro.runtime.jobs.SolveOutcome` of the latest query stays
    available as :attr:`last_outcome`. A job whose seed is ``None`` gets
    the runtime's derived per-job seed, so a query's answer is
    deterministic.

    Parameters
    ----------
    solver:
        Any runtime solver spec (:func:`repro.runtime.jobs.known_solver_specs`).
    base_formula / num_variables:
        Initial problem (see :class:`IncrementalSession`).
    seed / samples / carrier / preprocess:
        Copied into every query's :class:`SolveJob`.
    """

    def __init__(
        self,
        solver: str = PORTFOLIO_SPEC,
        base_formula: Optional[CNFFormula] = None,
        num_variables: int = 0,
        seed: Optional[int] = None,
        samples: int = 200_000,
        carrier: str = "uniform",
        preprocess: bool = False,
    ) -> None:
        known = known_solver_specs()
        if solver not in known:
            raise SolverError(
                f"unknown solver spec {solver!r}; available: {sorted(known)}"
            )
        self.solver_name = solver
        self._options = dict(
            solver=solver,
            seed=seed,
            samples=samples,
            carrier=carrier,
            preprocess=preprocess,
        )
        self.last_outcome = None
        super().__init__(base_formula=base_formula, num_variables=num_variables)

    def _solve(
        self, assumptions: tuple[int, ...], timeout: Optional[float]
    ) -> SolverResult:
        outcome = execute_job(
            SolveJob(
                formula=self.formula(),
                assumptions=assumptions,
                timeout=timeout,
                **self._options,
            )
        )
        self.last_outcome = outcome
        if outcome.status == ERROR:
            raise SolverError(outcome.error)
        model = outcome.assignment
        result = SolverResult(
            outcome.status,
            None if model is None else Assignment.from_literals(model),
            SolverStats(
                evaluations=outcome.samples_used,
                elapsed_seconds=outcome.elapsed_seconds,
            ),
            timed_out=outcome.timed_out,
            core=outcome.core,
        )
        if outcome.winner and outcome.winner != self.solver_name:
            result.solver_name = f"{self.solver_name}:{outcome.winner}"
        return result


def make_session(
    solver: str = "cdcl",
    base_formula: Optional[CNFFormula] = None,
    num_variables: int = 0,
    seed: Optional[int] = None,
    samples: int = 200_000,
    carrier: str = "uniform",
    preprocess: bool = False,
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
        Seed for stochastic solvers (WalkSAT, GSAT, the sampled engine).
    samples / carrier:
        Sampled-NBL engine budget and carrier family.
    preprocess:
        Run every query as ``SolveJob(preprocess=True)``: the preprocessing
        pipeline runs on the accumulated formula with the query's
        assumption variables frozen, for any spec. Portfolio sessions
        (which select the solver on each query's accumulated formula) and
        preprocessing sessions are :class:`JobSession` objects, which keep
        no solver state between queries and take no proof log.
    """
    if solver == PORTFOLIO_SPEC or preprocess:
        return JobSession(
            solver,
            base_formula=base_formula,
            num_variables=num_variables,
            seed=seed,
            samples=samples,
            carrier=carrier,
            preprocess=preprocess,
        )
    instance = make_spec_solver(solver, seed, samples, carrier)
    return instance.make_session(
        base_formula=base_formula, num_variables=num_variables
    )
