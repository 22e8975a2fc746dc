"""RTW-based NBL-SAT engine.

This is a thin specialisation of the sampled engine with telegraph-wave
carriers: the construction of Σ_N and τ_N is untouched, only the carrier
statistics change. Two carrier flavours are supported:

* ``switch_probability = 0.5`` (default) — the sign is redrawn i.i.d. every
  sample (equivalent to :class:`repro.noise.telegraph.BipolarCarrier`);
* ``switch_probability < 0.5`` — the sign persists between switching events,
  modelling a physical RTW sampled faster than its switching rate. The
  resulting temporal correlation slows convergence, which the ablation
  experiment measures.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.cnf.formula import CNFFormula
from repro.core.config import NBLConfig
from repro.core.result import CheckResult
from repro.core.sampled import SampledNBLEngine, SNKernel
from repro.exceptions import EngineError
from repro.noise.bank import NoiseBank
from repro.noise.telegraph import BipolarCarrier, TelegraphCarrier
from repro.utils.rng import SeedLike


class RTWNBLEngine:
    """NBL-SAT engine with Random-Telegraph-Wave carriers.

    Exposes the same ``check(bindings)`` interface as the other engines.
    """

    name = "rtw"

    def __init__(
        self,
        formula: CNFFormula,
        amplitude: float = 1.0,
        switch_probability: float = 0.5,
        max_samples: int = 100_000,
        block_size: int = 10_000,
        decision_fraction: float = 0.5,
        seed: SeedLike = 0,
    ) -> None:
        if not 0.0 < switch_probability <= 1.0:
            raise EngineError("switch_probability must lie in (0, 1]")
        if switch_probability == 0.5:
            carrier = BipolarCarrier(amplitude=amplitude)
        else:
            carrier = TelegraphCarrier(
                amplitude=amplitude, switch_probability=switch_probability
            )
        config = NBLConfig(
            carrier=carrier,
            max_samples=max_samples,
            block_size=block_size,
            decision_fraction=decision_fraction,
            convergence="adaptive",
            seed=seed,
        )
        self._inner = SampledNBLEngine(formula, config)
        self.formula = formula
        self.switch_probability = switch_probability

    @property
    def minterm_signal(self) -> float:
        """One-satisfying-minterm signal level ``amplitude²ⁿᵐ``."""
        return self._inner.minterm_signal

    @property
    def decision_threshold(self) -> float:
        """The SAT/UNSAT threshold applied to the observed mean."""
        return self._inner.decision_threshold

    def check(self, bindings: Optional[Mapping[int, bool]] = None) -> CheckResult:
        """Algorithm 1 with RTW carriers."""
        result = self._inner.check(bindings)
        result.engine = self.name
        return result

    def __repr__(self) -> str:
        return (
            f"RTWNBLEngine(n={self.formula.num_variables}, "
            f"m={self.formula.num_clauses}, p_switch={self.switch_probability})"
        )


def instantaneous_margin(
    formula: CNFFormula,
    num_observations: int = 64,
    block_size: int = 2_000,
    seed: SeedLike = 0,
) -> float:
    """Diagnostic inspired by "instantaneous" noise-based logic (paper ref. [17]).

    Repeatedly evaluates short RTW observation windows of ``S_N`` and returns
    the fraction of windows whose mean exceeds half the one-minterm level.
    For satisfiable instances this fraction approaches 1 with even modest
    window lengths (because the matched products are exactly +1 at every
    sample); for unsatisfiable instances it stays near the false-positive
    rate of the window length. Used by the carrier ablation as a cheap
    separability summary.
    """
    if num_observations <= 0 or block_size <= 0:
        raise EngineError("num_observations and block_size must be positive")
    carrier = BipolarCarrier()
    threshold = 0.5  # one-minterm level is exactly 1 for bipolar carriers
    kernel = SNKernel(formula)
    hits = 0
    for index in range(num_observations):
        bank = NoiseBank(
            num_clauses=formula.num_clauses,
            num_variables=formula.num_variables,
            carrier=carrier,
            seed=None if seed is None else (hash((seed, index)) & 0x7FFFFFFF),
        )
        block = bank.sample_block(block_size, out=kernel.block_buffer(block_size))
        if float(np.mean(kernel.evaluate(block))) > threshold:
            hits += 1
    return hits / num_observations
