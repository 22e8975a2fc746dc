"""By-name registry of every solver the runtime can run.

Built in are the classical baselines, the two NBL engines
(``"nbl-symbolic"``, ``"nbl-sampled"``) and the NBL-guided ``"hybrid"``.
The registry is extensible: downstream code adds solvers with
:func:`register_solver`, after which they are constructible by name
everywhere a solver name is accepted — the batch runtime, the solve
service and the session factory.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.exceptions import SolverError
from repro.solvers.base import SATSolver
from repro.solvers.brute_force import BruteForceSolver
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import DPLLSolver
from repro.solvers.gsat import GSATSolver
from repro.solvers.walksat import WalkSATSolver

_SOLVERS: Dict[str, Type[SATSolver]] = {
    BruteForceSolver.name: BruteForceSolver,
    DPLLSolver.name: DPLLSolver,
    CDCLSolver.name: CDCLSolver,
    WalkSATSolver.name: WalkSATSolver,
    GSATSolver.name: GSATSolver,
}


def register_solver(
    cls: Type[SATSolver],
    name: Optional[str] = None,
    override: bool = False,
) -> Type[SATSolver]:
    """Register a :class:`SATSolver` subclass under ``name``.

    Parameters
    ----------
    cls:
        The solver class; must subclass :class:`SATSolver`.
    name:
        Registry key; defaults to ``cls.name``.
    override:
        Allow replacing an existing registration (off by default so typos
        do not silently shadow a built-in).

    Returns
    -------
    The class itself, so the function doubles as a decorator::

        @register_solver
        class MySolver(SATSolver):
            name = "mine"
    """
    if not (isinstance(cls, type) and issubclass(cls, SATSolver)):
        raise SolverError(f"register_solver expects a SATSolver subclass, got {cls!r}")
    key = name if name is not None else cls.name
    if not key or key == "abstract":
        raise SolverError(f"solver class {cls.__name__} needs a non-default name")
    if key in _SOLVERS and not override:
        raise SolverError(
            f"solver name {key!r} is already registered; pass override=True "
            "to replace it"
        )
    _SOLVERS[key] = cls
    return cls


def available_solvers() -> list[str]:
    """Names of all registered solvers."""
    _ensure_extended_solvers()
    return sorted(_SOLVERS)


def make_solver(name: str, **kwargs) -> SATSolver:
    """Instantiate a solver by registry name; ``kwargs`` go to its constructor."""
    _ensure_extended_solvers()
    try:
        cls = _SOLVERS[name]
    except KeyError as exc:
        raise SolverError(
            f"unknown solver {name!r}; available: {available_solvers()}"
        ) from exc
    return cls(**kwargs)


def _ensure_extended_solvers() -> None:
    """Register solvers living outside :mod:`repro.solvers` exactly once.

    The two NBL engine solvers (:mod:`repro.solvers.nbl`) and the hybrid
    CPU + NBL-coprocessor solver (:mod:`repro.hybrid`) build on
    :mod:`repro.core`, which this package does not import, and the hybrid
    module imports this package (a cycle at import time); they are pulled
    in lazily on first registry use.
    """
    if "hybrid" in _SOLVERS:
        return
    from repro.hybrid.solver import HybridNBLSolver
    from repro.solvers.nbl import SampledNBLSolver, SymbolicNBLSolver

    register_solver(SymbolicNBLSolver)
    register_solver(SampledNBLSolver)
    register_solver(HybridNBLSolver, name="hybrid")
