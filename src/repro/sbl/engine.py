"""The sinusoid-based-logic NBL-SAT engine."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cnf.formula import CNFFormula
from repro.core.sampled import SampledRealization, SNKernel
from repro.sbl.carriers import SinusoidBank
from repro.sbl.frequency_plan import FrequencyPlan
from repro.utils.rng import SeedLike


class SBLNBLEngine(SampledRealization):
    """NBL-SAT check using sinusoidal carriers instead of noise.

    The Σ_N / τ_N construction is identical to the sampled noise engine —
    only the carrier bank differs, and the observation is the shared
    :class:`~repro.core.sampled.SampledRealization` loop at a fixed budget.
    Because sinusoids are deterministic, a check is reproducible
    sample-for-sample given the frequency plan and the phase seed.

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
        power = amplitude**2 / 2.0
        super().__init__(
            formula,
            power,
            f"sinusoid carrier (power={power:.4g})",
            max_samples=max_samples,
            block_size=block_size,
            decision_fraction=decision_fraction,
        )
        self._amplitude = amplitude
        self._seed = seed
        self._plan = plan
        self._check_counter = 0
        self._kernel = SNKernel(formula)

    def _open(self, bindings: dict[int, bool]) -> Callable[[int], np.ndarray]:
        self._check_counter += 1
        seed = (
            None
            if self._seed is None
            else (hash((self._seed, self._check_counter)) & 0x7FFFFFFF)
        )
        bank = SinusoidBank(
            num_clauses=self.formula.num_clauses,
            num_variables=self.formula.num_variables,
            plan=self._plan,
            amplitude=self._amplitude,
            seed=seed,
        )
        return lambda size: self._kernel.evaluate(bank.sample_block(size), bindings)

    def __repr__(self) -> str:
        return (
            f"SBLNBLEngine(n={self.formula.num_variables}, "
            f"m={self.formula.num_clauses})"
        )
