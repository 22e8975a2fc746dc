"""The Monte-Carlo (sampled) NBL-SAT engine and the loop every sampled realization runs.

This is the software realization the paper validated in MATLAB (Section IV):
the basis noise sources are sampled, ``τ_N`` and ``Σ_N`` are evaluated on
each sample, and the average of ``S_N = τ_N · Σ_N`` is accumulated until it
either converges or the sample budget is exhausted.

:class:`SampledRealization` is that observe-and-decide loop, written once:
the sampled noise engine, the sinusoid (SBL) engine and the analog netlist
engine differ only in how they draw a block of ``S_N`` samples.

:class:`SNKernel` is the one ``S_N`` evaluator of the package (the sampled
and SBL engines use it). It walks each freshly drawn block in tiles
of :data:`TILE_SAMPLES` samples and evaluates ``τ_N`` and ``Σ_N`` on one
tile after the other, so a tile's sources and intermediates stay in cache
and every buffer is reused across tiles, blocks and checks.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from repro.cnf.formula import CNFFormula
from repro.core.config import NBLConfig
from repro.core.result import CheckResult
from repro.core.sigma import SigmaPlan, sigma_samples
from repro.exceptions import EngineError
from repro.hyperspace.reference import reference_hyperspace
from repro.noise.bank import NoiseBank
from repro.utils.stats import RunningStats
from repro.utils.workspace import Workspace

#: Samples per tile of the fused τ·Σ loop. For Example 5 (24 sources) a
#: tile's sources take 1.5 MB and its intermediates about 1 MB, so they stay
#: in cache between the τ and Σ passes; tiles of 4k-16k samples timed within
#: 10% of each other, whole 100k-sample blocks about 60% slower.
TILE_SAMPLES = 8192


class SNKernel:
    """``S_N = τ_N · Σ_N`` on sample blocks of one formula, tile by tile.

    The formula is compiled once into a :class:`~repro.core.sigma.SigmaPlan`;
    the kernel's :class:`~repro.utils.workspace.Workspace` holds the block
    buffer handed to :meth:`NoiseBank.sample_block
    <repro.noise.bank.NoiseBank.sample_block>`, the ``S_N`` vector and every
    τ/Σ intermediate.
    """

    def __init__(self, formula: CNFFormula) -> None:
        self._plan = SigmaPlan.from_formula(formula)
        self._workspace = Workspace()

    def block_buffer(self, size: int) -> np.ndarray:
        """The reusable ``(m, n, 2, size)`` buffer to draw the next block into."""
        plan = self._plan
        return self._workspace.take("block", plan.num_clauses, plan.num_variables, 2, size)

    def evaluate(
        self, block: np.ndarray, bindings: Optional[Mapping[int, bool]] = None
    ) -> np.ndarray:
        """``S_N`` samples of ``block``, with ``bindings`` applied to ``τ_N``.

        The result is a view of a buffer the next call overwrites.
        """
        workspace = self._workspace
        size = block.shape[-1]
        sn = workspace.take("sn", size)
        for start in range(0, size, TILE_SAMPLES):
            stop = min(start + TILE_SAMPLES, size)
            tile = block[..., start:stop]
            tau = reference_hyperspace(
                tile, bindings, out=workspace.take("tau", stop - start), workspace=workspace
            )
            sigma = sigma_samples(
                tile, self._plan, out=workspace.take("sigma", stop - start), workspace=workspace
            )
            np.multiply(tau, sigma, out=sn[start:stop])
        return sn


class SampledRealization:
    """Algorithm 1 on any sampled realization of ``S_N``: the one observe-and-decide loop.

    A realization (noise bank, sinusoid bank, analog netlist) supplies only
    how a block of ``S_N`` samples is drawn (:meth:`_open`) and its
    per-source power. This class owns everything else: the formula checks,
    the float64 underflow guard, bindings validation, the one-minterm signal
    and decision threshold, block sizing, the stopping rule, trace recording
    and the :class:`~repro.core.result.CheckResult`.

    Parameters
    ----------
    formula:
        The CNF instance ``S``.
    power:
        Power ``E[x²]`` of one basis source.
    source:
        Description of the sources, named when the signal underflows.
    max_samples / block_size:
        Observation budget and samples drawn per block.
    decision_fraction:
        SAT threshold as a fraction of the one-minterm signal level.
    stop_z:
        ``None`` observes the whole budget (``converged`` is then always
        ``True``); otherwise the observation stops once the ±``stop_z``·SE
        interval of the running mean, taken after ``min_samples``, lies on
        one side of the threshold.
    record_trace:
        Record the running mean after every block.
    """

    #: Engine label reported in every :class:`~repro.core.result.CheckResult`.
    name: str

    def __init__(
        self,
        formula: CNFFormula,
        power: float,
        source: str,
        max_samples: int,
        block_size: int,
        decision_fraction: float,
        stop_z: Optional[float] = None,
        min_samples: int = 1,
        record_trace: bool = False,
    ) -> None:
        if formula.num_variables == 0:
            raise EngineError("NBL-SAT requires at least one variable")
        if formula.num_clauses == 0:
            raise EngineError(
                "NBL-SAT requires at least one clause (an empty conjunction is trivially SAT)"
            )
        if max_samples <= 0 or block_size <= 0:
            raise EngineError("max_samples and block_size must be positive")
        if not 0.0 < decision_fraction < 1.0:
            raise EngineError("decision_fraction must lie in (0, 1)")
        self._formula = formula
        self._power = power
        self._max_samples = max_samples
        self._block_size = min(block_size, max_samples)
        self._decision_fraction = decision_fraction
        self._stop_z = stop_z
        self._min_samples = min_samples
        self._record_trace = record_trace
        check_signal_level(self.minterm_signal, source)

    @property
    def formula(self) -> CNFFormula:
        """The CNF instance this engine is bound to."""
        return self._formula

    @property
    def minterm_signal(self) -> float:
        """Analytic contribution of one satisfying minterm to the mean of S_N.

        Equals ``power ** (n·m)``: each of the ``n·m`` basis sources shared
        between a τ_N minterm and the matching Σ_N minterm contributes its
        power ``E[x²]``.
        """
        exponent = self._formula.num_variables * self._formula.num_clauses
        return float(self._power**exponent)

    @property
    def decision_threshold(self) -> float:
        """The SAT/UNSAT threshold applied to the observed mean."""
        return self._decision_fraction * self.minterm_signal

    def check(self, bindings: Optional[Mapping[int, bool]] = None) -> CheckResult:
        """Algorithm 1: observe the mean of ``S_N`` and decide SAT/UNSAT.

        Parameters
        ----------
        bindings:
            Optional variable bindings applied to ``τ_N`` (Algorithm 2's
            reduced hyperspace). Binding does not change ``Σ_N``.

        Returns
        -------
        CheckResult
            Decision, observed mean, confidence information and (when trace
            recording is on) the running-mean trace.
        """
        bindings = dict(bindings or {})
        for variable in bindings:
            if not 1 <= variable <= self._formula.num_variables:
                raise EngineError(
                    f"bound variable x{variable} out of range "
                    f"1..{self._formula.num_variables}"
                )
        draw = self._open(bindings)
        threshold = self.decision_threshold
        stats = RunningStats()
        trace_samples: list[int] = []
        trace_means: list[float] = []
        converged = self._stop_z is None
        while stats.count < self._max_samples:
            stats.push_batch(draw(min(self._block_size, self._max_samples - stats.count)))
            if self._record_trace:
                trace_samples.append(stats.count)
                trace_means.append(stats.mean)
            if self._stop_z is not None and stats.count >= self._min_samples:
                margin = self._stop_z * stats.std_error
                if stats.mean - margin > threshold or stats.mean + margin < threshold:
                    converged = True
                    break
        mean, samples_used = self._observed(stats)
        return CheckResult(
            satisfiable=mean > threshold,
            mean=mean,
            threshold=threshold,
            samples_used=samples_used,
            std_error=stats.std_error,
            converged=converged,
            expected_minterm_signal=self.minterm_signal,
            trace_samples=trace_samples,
            trace_means=trace_means,
            engine=self.name,
            bindings=bindings,
        )

    def _open(self, bindings: dict[int, bool]) -> Callable[[int], np.ndarray]:
        """Start one observation: a function from a block size to ``S_N`` samples."""
        raise NotImplementedError

    def _observed(self, stats: RunningStats) -> tuple[float, int]:
        """The observed mean and sample count: those of the accumulated samples."""
        return stats.mean, stats.count


class SampledNBLEngine(SampledRealization):
    """Evaluates NBL-SAT checks by Monte-Carlo sampling of the noise sources.

    One engine instance is bound to one CNF formula (the noise-source layout
    ``2·m·n`` depends on it). Each call to :meth:`check` runs an independent
    estimation of the mean of ``S_N``, optionally with variables bound inside
    ``τ_N`` (the reduced hyperspace of Algorithm 2). The carrier, the budget
    and the stopping rule come from the :class:`~repro.core.config.NBLConfig`;
    a Random-Telegraph-Wave realization is this engine with a
    :class:`~repro.noise.telegraph.BipolarCarrier` or
    :class:`~repro.noise.telegraph.TelegraphCarrier`.

    Parameters
    ----------
    formula:
        The CNF instance ``S``.
    config:
        Engine configuration; defaults to :class:`~repro.core.config.NBLConfig`.
    """

    name = "sampled"

    def __init__(self, formula: CNFFormula, config: Optional[NBLConfig] = None) -> None:
        config = config if config is not None else NBLConfig()
        super().__init__(
            formula,
            config.carrier.power,
            config.carrier.describe(),
            max_samples=config.max_samples,
            block_size=config.block_size,
            decision_fraction=config.decision_fraction,
            stop_z=config.confidence_z if config.convergence == "adaptive" else None,
            min_samples=config.min_samples,
            record_trace=config.record_trace,
        )
        self._config = config
        self._kernel = SNKernel(formula)
        self._bank = NoiseBank(
            num_clauses=formula.num_clauses,
            num_variables=formula.num_variables,
            carrier=config.carrier,
            seed=config.seed,
        )

    @property
    def config(self) -> NBLConfig:
        """The engine configuration."""
        return self._config

    def sn_block(self, bindings: Optional[Mapping[int, bool]] = None, block_size: Optional[int] = None):
        """Draw one fresh block and return the ``S_N`` samples on it.

        Exposed for tests and for the analog cross-validation; most callers
        should use :meth:`check`.
        """
        size = block_size if block_size is not None else self._config.block_size
        return self._sample_sn(size, bindings).copy()

    def _open(self, bindings: dict[int, bool]) -> Callable[[int], np.ndarray]:
        return lambda size: self._sample_sn(size, bindings)

    def _sample_sn(self, size: int, bindings: Optional[Mapping[int, bool]]) -> np.ndarray:
        block = self._bank.sample_block(size, out=self._kernel.block_buffer(size))
        return self._kernel.evaluate(block, bindings)

    def __repr__(self) -> str:
        return (
            f"SampledNBLEngine(n={self._formula.num_variables}, "
            f"m={self._formula.num_clauses}, carrier={self._config.carrier.name})"
        )


def check_signal_level(signal: float, carrier: str) -> None:
    """Refuse a one-minterm signal level that float64 cannot represent.

    Below the smallest normal double the threshold and the estimated mean
    both round to zero (or lose all precision), so every check would answer
    UNSAT whatever the formula. With the paper's uniform [-0.5, 0.5]
    carrier this happens once ``n·m > 285``.
    """
    if not signal >= np.finfo(np.float64).tiny:
        raise EngineError(
            f"one-minterm signal {signal:.3g} of the {carrier} underflows float64 "
            "(every check would read UNSAT); use a unit-power carrier such as "
            "UniformCarrier(normalized=True) or BipolarCarrier()"
        )
