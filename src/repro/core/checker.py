"""The NBL-SAT engines selectable by name.

:func:`make_engine` builds the engine whose ``check(bindings)`` is the
paper's ``NBL-SAT check(S_N)`` (Algorithm 1): observe the average of
``S_N = τ_N · Σ_N`` for a CNF instance and decide SAT/UNSAT.
:class:`~repro.core.solver.NBLSATSolver` is the facade over it.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cnf.formula import CNFFormula
from repro.core.config import NBLConfig
from repro.core.sampled import SampledNBLEngine
from repro.core.symbolic import SymbolicNBLEngine
from repro.exceptions import EngineError

#: Engines selectable by name in :func:`make_engine`.
ENGINE_NAMES = ("sampled", "symbolic")

EngineLike = Union[SampledNBLEngine, SymbolicNBLEngine]


def make_engine(
    formula: CNFFormula,
    engine: str = "sampled",
    config: Optional[NBLConfig] = None,
) -> EngineLike:
    """Instantiate an NBL-SAT engine by name for ``formula``.

    ``"sampled"`` is the Monte-Carlo engine the paper simulated;
    ``"symbolic"`` is the exact infinite-observation limit.
    """
    if engine == "sampled":
        return SampledNBLEngine(formula, config)
    if engine == "symbolic":
        carrier = config.carrier if config is not None else None
        return SymbolicNBLEngine(formula, carrier)
    raise EngineError(f"unknown engine {engine!r}; available: {ENGINE_NAMES}")

