"""Portfolio racing: NBL engines vs. the classical baseline solvers.

The racer runs a deterministic roster of *contenders* over one formula and
returns the first **settled** answer:

* ``SAT`` with a model that was verified against the formula, or
* ``UNSAT`` from a complete contender (the exact symbolic NBL engine or a
  complete classical solver).

Every contender is a registry solver built by :func:`make_spec_solver`.
Incomplete contenders (WalkSAT, GSAT, the sampled NBL engine) can win only
via a verified SAT model; their other verdicts are recorded but do not
settle the race. Contenders run sequentially in roster order with an even
split of the remaining time budget, which keeps the portfolio fully
deterministic for a fixed seed — a requirement of the worker pool's
reproducibility contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.exceptions import RuntimeSubsystemError
from repro.runtime.jobs import ERROR, NBL_SPECS, SKIPPED
from repro.solvers.base import UNKNOWN, SATSolver
from repro.solvers.registry import available_solvers, make_solver

#: Default roster: the paper's exact NBL engine first, then complete
#: classical search, then stochastic local search as a SAT sprinter.
DEFAULT_CONTENDERS = ("nbl-symbolic", "dpll", "cdcl", "walksat")

#: Classical solvers that accept a ``seed`` constructor argument.
SEEDED_SOLVERS = ("walksat", "gsat")

#: Solvers whose cost is exponential in the variable count; the portfolio
#: skips them (status ``"SKIPPED"``) beyond their limit instead of hanging
#: the whole race, and the worker pool refuses direct jobs past it. The
#: hybrid solver is listed because its (default) symbolic guidance
#: enumerates the residual formula's minterms at every DPLL decision.
EXPONENTIAL_LIMITS = {"nbl-symbolic": 20, "brute-force": 24, "hybrid": 20}


def refusal_reason(solver: str, formula: CNFFormula) -> Optional[str]:
    """Why ``solver`` must not be run on ``formula``, or ``None`` if it may.

    Single source of the exponential-cost refusal policy, shared by the
    portfolio racer (which skips the contender) and the worker pool (which
    fails the job fast).
    """
    limit = EXPONENTIAL_LIMITS.get(solver)
    if limit is not None and formula.num_variables > limit:
        return (
            f"{formula.num_variables} variables exceed {solver}'s "
            f"{limit}-variable limit"
        )
    return None


def make_spec_solver(
    spec: str, seed: Optional[int], samples: int, carrier: str
) -> SATSolver:
    """The registry solver for one run of runtime solver ``spec``.

    The one place that decides constructor arguments per spec, shared by
    the worker pool, the portfolio racer and the session factory: the NBL
    engines get the sample budget, carrier and seed, the stochastic local
    searches get the seed, and every other solver its defaults.
    """
    if spec in NBL_SPECS:
        return make_solver(spec, samples=samples, carrier=carrier, seed=seed)
    if spec in SEEDED_SOLVERS:
        return make_solver(spec, seed=seed)
    return make_solver(spec)


@dataclass
class ContenderReport:
    """What one contender did during a race."""

    name: str
    status: str
    elapsed_seconds: float = 0.0
    samples_used: int = 0
    settled: bool = False
    detail: str = ""
    assignment: Optional[Assignment] = field(default=None, repr=False)


@dataclass
class PortfolioResult:
    """Outcome of one portfolio race.

    ``status`` is ``"SAT"``/``"UNSAT"`` when some contender settled the
    race, else ``"UNKNOWN"``. ``winner`` names the settling contender.
    """

    status: str
    winner: str = ""
    assignment: Optional[Assignment] = None
    verified: bool = False
    elapsed_seconds: float = 0.0
    samples_used: int = 0
    reports: list[ContenderReport] = field(default_factory=list)

    @property
    def timed_out(self) -> bool:
        """``True`` when the race ended undecided because time ran out."""
        return self.status == UNKNOWN and any(
            report.detail in ("timed out", "no time left")
            for report in self.reports
        )

    @property
    def contender_seconds(self) -> dict[str, float]:
        """Per-contender wall times, keyed by contender name."""
        return {r.name: r.elapsed_seconds for r in self.reports}

    @property
    def contender_status(self) -> dict[str, str]:
        """Per-contender verdicts, keyed by contender name."""
        return {r.name: r.status for r in self.reports}


class PortfolioSolver:
    """Race NBL engines and classical solvers over single formulas.

    Parameters
    ----------
    contenders:
        Roster of contender names, raced in order: any registry solver
        name (:func:`repro.solvers.registry.available_solvers`), the two
        NBL engines ``"nbl-symbolic"`` and ``"nbl-sampled"`` included.
    samples:
        Sample budget per check for the sampled NBL engine.
    carrier:
        Carrier family name for the sampled NBL engine.
    """

    def __init__(
        self,
        contenders: Sequence[str] = DEFAULT_CONTENDERS,
        samples: int = 200_000,
        carrier: str = "uniform",
    ) -> None:
        if not contenders:
            raise RuntimeSubsystemError("portfolio needs at least one contender")
        known = available_solvers()
        for name in contenders:
            if name not in known:
                raise RuntimeSubsystemError(
                    f"unknown portfolio contender {name!r}; available: {known}"
                )
        self._contenders = tuple(contenders)
        self._samples = samples
        self._carrier = carrier

    @property
    def contenders(self) -> tuple[str, ...]:
        """The roster, in race order."""
        return self._contenders

    def solve(
        self,
        formula: CNFFormula,
        seed: Optional[int] = None,
        timeout: Optional[float] = None,
        assumptions: Sequence[int] = (),
    ) -> PortfolioResult:
        """Race the roster over ``formula`` and return the settled answer.

        Parameters
        ----------
        formula:
            The CNF instance.
        seed:
            Seed for the stochastic contenders (sampled engine, WalkSAT,
            GSAT); a fixed seed makes the whole race deterministic.
        timeout:
            Total wall-clock budget, split evenly across the contenders
            that have not yet run. Enforcement is cooperative: classical
            contenders honour their slice, but NBL contenders are bounded
            by their sample budget (sampled) or variable limit (symbolic)
            and can overshoot the slice — budget the roster accordingly
            (small ``samples``, NBL contenders late) when ``timeout``
            matters.
        assumptions:
            DIMACS-signed literals that must hold for this race only; the
            roster then solves the assumption-strengthened formula, so
            ``UNSAT`` means "unsatisfiable under the assumptions".
        """
        if assumptions:
            formula = formula.with_assumptions(assumptions)
        start = time.perf_counter()
        deadline = start + timeout if timeout is not None else None
        reports: list[ContenderReport] = []
        total_samples = 0
        result: Optional[PortfolioResult] = None

        for position, name in enumerate(self._contenders):
            slice_budget = self._time_slice(deadline, position)
            if slice_budget is not None and slice_budget <= 0:
                reports.append(ContenderReport(name, SKIPPED, detail="no time left"))
                continue
            report = self._run_contender(name, formula, seed, slice_budget)
            reports.append(report)
            total_samples += report.samples_used
            if report.settled:
                result = self._settled_result(report)
                break

        if result is None:
            result = PortfolioResult(status=UNKNOWN)
        result.reports = reports
        result.samples_used = total_samples
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # -- internals -------------------------------------------------------------
    def _time_slice(
        self, deadline: Optional[float], position: int
    ) -> Optional[float]:
        """Even split of the remaining budget over the remaining contenders."""
        if deadline is None:
            return None
        remaining_time = deadline - time.perf_counter()
        remaining_contenders = len(self._contenders) - position
        return remaining_time / max(remaining_contenders, 1)

    def _settled_result(self, report: ContenderReport) -> PortfolioResult:
        return PortfolioResult(
            status=report.status,
            winner=report.name,
            verified=True,
            assignment=report.assignment,
        )

    def _run_contender(
        self,
        name: str,
        formula: CNFFormula,
        seed: Optional[int],
        budget: Optional[float],
    ) -> ContenderReport:
        refusal = refusal_reason(name, formula)
        if refusal is not None:
            return ContenderReport(name, SKIPPED, detail=refusal)
        started = time.perf_counter()
        try:
            report = self._run_solver(name, formula, seed, budget)
        except Exception as exc:  # noqa: BLE001 — contender isolation boundary
            # Any failure (library error, RecursionError, ...) eliminates
            # this contender only; the rest of the roster still races.
            report = ContenderReport(
                name, ERROR, detail=f"{type(exc).__name__}: {exc}"
            )
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def _run_solver(
        self,
        name: str,
        formula: CNFFormula,
        seed: Optional[int],
        budget: Optional[float],
    ) -> ContenderReport:
        solver = make_spec_solver(name, seed, self._samples, self._carrier)
        result = solver.solve(formula, timeout=budget)
        return ContenderReport(
            name,
            result.status,
            samples_used=result.stats.evaluations if name in NBL_SPECS else 0,
            # The SATSolver base class has already verified any SAT model.
            settled=result.is_sat or (result.is_unsat and solver.complete),
            assignment=result.assignment,
            detail="timed out" if result.timed_out else "",
        )
