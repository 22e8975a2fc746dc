"""RTW diagnostics.

An RTW NBL-SAT check is :class:`repro.core.sampled.SampledNBLEngine` with a
telegraph-wave carrier: the construction of Σ_N and τ_N is untouched, only
the carrier statistics change. Two carrier flavours exist:

* :class:`repro.noise.telegraph.BipolarCarrier` — the sign is redrawn
  i.i.d. every sample;
* :class:`repro.noise.telegraph.TelegraphCarrier` with
  ``switch_probability < 0.5`` — the sign persists between switching events,
  modelling a physical RTW sampled faster than its switching rate. The
  resulting temporal correlation slows convergence, which the ablation
  experiment measures.
"""

from __future__ import annotations

import numpy as np

from repro.cnf.formula import CNFFormula
from repro.core.sampled import SNKernel
from repro.exceptions import EngineError
from repro.noise.bank import NoiseBank
from repro.noise.telegraph import BipolarCarrier
from repro.utils.rng import SeedLike


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
