"""By-name registry of every solver the runtime can run.

Built in are the classical baselines, the two NBL engines
(``"nbl-symbolic"``, ``"nbl-sampled"``) and the NBL-guided ``"hybrid"``.
A built-in is a name → ``(module, class)`` row, and its module is imported
only when the name is made, so a ``cdcl`` process never loads the NBL
stack or NumPy. The registry is extensible: downstream code adds solvers
with :func:`register_solver`, after which they are constructible by name
everywhere a solver name is accepted — the batch runtime, the solve
service and the session factory.
"""

from __future__ import annotations

import importlib
from typing import Dict, Optional, Tuple, Type

from repro.exceptions import SolverError
from repro.solvers.base import SATSolver

#: Built-in solver name → ``(module, class name)``, imported on first use.
_BUILTIN: Dict[str, Tuple[str, str]] = {
    "brute-force": ("repro.solvers.brute_force", "BruteForceSolver"),
    "dpll": ("repro.solvers.dpll", "DPLLSolver"),
    "cdcl": ("repro.solvers.cdcl.solver", "CDCLSolver"),
    "walksat": ("repro.solvers.walksat", "WalkSATSolver"),
    "gsat": ("repro.solvers.gsat", "GSATSolver"),
    "nbl-symbolic": ("repro.solvers.nbl", "SymbolicNBLSolver"),
    "nbl-sampled": ("repro.solvers.nbl", "SampledNBLSolver"),
    "hybrid": ("repro.hybrid.solver", "HybridNBLSolver"),
}

#: Solvers added by :func:`register_solver`; a name here shadows a built-in.
_REGISTERED: Dict[str, Type[SATSolver]] = {}


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
        Allow replacing an existing registration or a built-in name (off by
        default so typos do not silently shadow a built-in).

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
    if (key in _BUILTIN or key in _REGISTERED) and not override:
        raise SolverError(
            f"solver name {key!r} is already registered; pass override=True "
            "to replace it"
        )
    _REGISTERED[key] = cls
    return cls


def available_solvers() -> list[str]:
    """Names of all built-in and registered solvers; imports nothing."""
    return sorted({*_BUILTIN, *_REGISTERED})


def make_solver(name: str, **kwargs) -> SATSolver:
    """Instantiate a solver by registry name; ``kwargs`` go to its constructor."""
    cls = _REGISTERED.get(name)
    if cls is None:
        if name not in _BUILTIN:
            raise SolverError(
                f"unknown solver {name!r}; available: {available_solvers()}"
            )
        module, class_name = _BUILTIN[name]
        cls = getattr(importlib.import_module(module), class_name)
    return cls(**kwargs)
