"""The paper's primary contribution: the NBL-SAT engines and algorithms.

Public surface:

* :class:`NBLSATSolver` — facade combining Algorithm 1 (single-operation
  SAT check) and Algorithm 2 (satisfying-assignment determination);
* :class:`SampledRealization` — Algorithm 1's observe-and-decide loop,
  written once for every sampled realization (noise, sinusoids, analog);
* :class:`SampledNBLEngine` — the Monte-Carlo realization the paper
  simulated in MATLAB, evaluating ``S_N`` through :class:`SNKernel`;
* :class:`SymbolicNBLEngine` — the exact, infinite-observation limit;
* :class:`NBLConfig` — engine configuration (carriers, sample budgets,
  thresholds);
* the SNR model of Section III-F (:mod:`repro.core.snr`).
"""

from repro.core.config import NBLConfig, paper_figure1_config
from repro.core.result import AssignmentResult, CheckResult
from repro.core.sampled import (
    SampledNBLEngine,
    SampledRealization,
    SNKernel,
    check_signal_level,
)
from repro.core.symbolic import SymbolicNBLEngine
from repro.core.checker import ENGINE_NAMES, make_engine
from repro.core.assignment import (
    find_satisfying_assignment,
    find_satisfying_cube,
    find_prime_implicant_cube,
)
from repro.core.solver import NBLSATSolver
from repro.core.sigma import (
    SigmaPlan,
    sigma_samples,
    clause_superposition_samples,
    clause_minterm_sets,
    satisfying_minterms,
)
from repro.core.snr import (
    SNRParameters,
    single_minterm_mean,
    snr_paper_model,
    snr_sqrt_model,
    samples_for_target_snr,
    empirical_snr,
)

__all__ = [
    "NBLConfig",
    "paper_figure1_config",
    "AssignmentResult",
    "CheckResult",
    "SampledNBLEngine",
    "SampledRealization",
    "SNKernel",
    "check_signal_level",
    "SymbolicNBLEngine",
    "ENGINE_NAMES",
    "make_engine",
    "find_satisfying_assignment",
    "find_satisfying_cube",
    "find_prime_implicant_cube",
    "NBLSATSolver",
    "SigmaPlan",
    "sigma_samples",
    "clause_superposition_samples",
    "clause_minterm_sets",
    "satisfying_minterms",
    "SNRParameters",
    "single_minterm_mean",
    "snr_paper_model",
    "snr_sqrt_model",
    "samples_for_target_snr",
    "empirical_snr",
]
