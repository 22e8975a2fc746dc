"""Result objects returned by the NBL-SAT engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cnf.assignment import Assignment


@dataclass
class CheckResult:
    """Outcome of one NBL-SAT satisfiability check (Algorithm 1).

    Attributes
    ----------
    satisfiable:
        The decision: ``True`` when the mean of ``S_N = τ_N · Σ_N`` is judged
        positive, ``False`` when it is judged zero.
    mean:
        The (estimated or exact) mean of ``S_N``.
    threshold:
        The decision threshold the mean was compared against.
    samples_used:
        Number of noise samples consumed (0 for the exact/symbolic engine).
    std_error:
        Standard error of the estimated mean (0.0 for the exact engine).
    converged:
        Whether the adaptive stopping criterion was met before the sample
        budget ran out (always ``True`` for fixed-budget and exact checks).
    expected_minterm_signal:
        The analytic one-satisfying-minterm signal level
        ``carrier.power ** (n·m)``; useful to express ``mean`` in units of
        satisfying minterms.
    trace_samples / trace_means:
        Running-mean trace (one entry per processed block) when trace
        recording is enabled; empty otherwise.
    engine:
        Name of the engine that produced the result (``"sampled"``,
        ``"symbolic"``, ``"analog"``, ``"sbl"``).
    bindings:
        The variable bindings applied to ``τ_N`` for this check (Algorithm 2
        uses these reduced checks).
    """

    satisfiable: bool
    mean: float
    threshold: float
    samples_used: int = 0
    std_error: float = 0.0
    converged: bool = True
    expected_minterm_signal: float = 1.0
    trace_samples: list[int] = field(default_factory=list)
    trace_means: list[float] = field(default_factory=list)
    engine: str = "sampled"
    bindings: dict[int, bool] = field(default_factory=dict)

    @property
    def estimated_model_count(self) -> float:
        """``mean / expected_minterm_signal`` — a (noisy) satisfying-minterm count."""
        if self.expected_minterm_signal == 0.0:
            return 0.0
        return self.mean / self.expected_minterm_signal

    def __str__(self) -> str:
        verdict = "SATISFIABLE" if self.satisfiable else "UNSATISFIABLE"
        return (
            f"{verdict} (mean={self.mean:.4g}, threshold={self.threshold:.4g}, "
            f"samples={self.samples_used}, engine={self.engine})"
        )


@dataclass
class AssignmentResult:
    """Outcome of the satisfying-assignment determination (Algorithm 2).

    Attributes
    ----------
    satisfiable:
        ``False`` when the initial check already declared the instance UNSAT
        (in which case ``assignment`` is ``None``).
    assignment:
        The satisfying assignment found (complete over all variables for the
        minterm variant; possibly partial for the cube variant).
    checks:
        The individual :class:`CheckResult` objects of every reduced check
        performed, in execution order.
    verified:
        ``True`` when the returned assignment was verified against the CNF
        formula (always done when an assignment is returned).
    total_samples:
        Total noise samples consumed across all checks.
    dont_care_variables:
        Variables dropped by the cube variant (both polarities satisfiable).
    """

    satisfiable: bool
    assignment: Optional[Assignment]
    checks: list[CheckResult] = field(default_factory=list)
    verified: bool = False
    total_samples: int = 0
    dont_care_variables: list[int] = field(default_factory=list)

    @property
    def num_checks(self) -> int:
        """Number of NBL-SAT check operations performed."""
        return len(self.checks)

    def __str__(self) -> str:
        if not self.satisfiable:
            return f"UNSATISFIABLE after {self.num_checks} checks"
        return (
            f"SATISFIABLE: {self.assignment} "
            f"({self.num_checks} checks, verified={self.verified})"
        )
