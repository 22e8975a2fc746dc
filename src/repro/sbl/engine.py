"""The sinusoid-based-logic NBL-SAT engine."""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cnf.formula import CNFFormula
from repro.core.result import CheckResult
from repro.core.sampled import SNKernel, check_signal_level
from repro.exceptions import EngineError
from repro.sbl.carriers import SinusoidBank
from repro.sbl.frequency_plan import FrequencyPlan
from repro.utils.rng import SeedLike
from repro.utils.stats import RunningStats


class SBLNBLEngine:
    """NBL-SAT check using sinusoidal carriers instead of noise.

    The Σ_N / τ_N construction is identical to the sampled noise engine —
    only the carrier bank differs. Because sinusoids are deterministic, a
    check is reproducible sample-for-sample given the frequency plan and the
    phase seed.

    For a satisfying minterm, each of the ``n·m`` matched carrier pairs
    contributes its time-average power ``amplitude²/2``, so the one-minterm
    signal level is ``(amplitude²/2)^{n·m}``; the decision threshold is a
    configurable fraction of that, exactly as in the sampled engine.

    Parameters
    ----------
    formula:
        The CNF instance.
    plan:
        Frequency plan (defaults to a dithered plan sized for the instance).
    max_samples / block_size:
        Observation budget, in samples at the bank's sample rate.
    decision_fraction:
        SAT threshold as a fraction of the one-minterm signal level.
    amplitude:
        Carrier amplitude.
    seed:
        Seed for carrier phases (and plan dither when using the default
        plan).
    """

    name = "sbl"

    def __init__(
        self,
        formula: CNFFormula,
        plan: Optional[FrequencyPlan] = None,
        max_samples: int = 200_000,
        block_size: int = 20_000,
        decision_fraction: float = 0.5,
        amplitude: float = 1.0,
        seed: SeedLike = 0,
    ) -> None:
        if formula.num_variables == 0 or formula.num_clauses == 0:
            raise EngineError("SBL-SAT requires at least one variable and clause")
        if max_samples <= 0 or block_size <= 0:
            raise EngineError("max_samples and block_size must be positive")
        if not 0.0 < decision_fraction < 1.0:
            raise EngineError("decision_fraction must lie in (0, 1)")
        self.formula = formula
        self._max_samples = max_samples
        self._block_size = min(block_size, max_samples)
        self._decision_fraction = decision_fraction
        self._amplitude = amplitude
        self._seed = seed
        self._plan = plan
        self._check_counter = 0
        check_signal_level(
            self.minterm_signal, f"sinusoid carrier (power={amplitude**2 / 2.0:.4g})"
        )
        self._kernel = SNKernel(formula)

    # -- derived quantities ------------------------------------------------------
    @property
    def minterm_signal(self) -> float:
        """One-satisfying-minterm signal level ``(amplitude²/2)^{n·m}``."""
        exponent = self.formula.num_variables * self.formula.num_clauses
        return float((self._amplitude**2 / 2.0) ** exponent)

    @property
    def decision_threshold(self) -> float:
        """The SAT/UNSAT threshold applied to the observed mean."""
        return self._decision_fraction * self.minterm_signal

    def _make_bank(self) -> SinusoidBank:
        self._check_counter += 1
        seed = (
            None
            if self._seed is None
            else (hash((self._seed, self._check_counter)) & 0x7FFFFFFF)
        )
        return SinusoidBank(
            num_clauses=self.formula.num_clauses,
            num_variables=self.formula.num_variables,
            plan=self._plan,
            amplitude=self._amplitude,
            seed=seed,
        )

    # -- operations -----------------------------------------------------------------
    def check(self, bindings: Optional[Mapping[int, bool]] = None) -> CheckResult:
        """Algorithm 1 with sinusoidal carriers."""
        bindings = dict(bindings or {})
        bank = self._make_bank()
        stats = RunningStats()
        threshold = self.decision_threshold
        while stats.count < self._max_samples:
            size = min(self._block_size, self._max_samples - stats.count)
            stats.push_batch(self._kernel.evaluate(bank.sample_block(size), bindings))
        return CheckResult(
            satisfiable=stats.mean > threshold,
            mean=stats.mean,
            threshold=threshold,
            samples_used=stats.count,
            std_error=stats.std_error,
            converged=True,
            expected_minterm_signal=self.minterm_signal,
            engine=self.name,
            bindings=bindings,
        )

    def __repr__(self) -> str:
        return (
            f"SBLNBLEngine(n={self.formula.num_variables}, "
            f"m={self.formula.num_clauses})"
        )
