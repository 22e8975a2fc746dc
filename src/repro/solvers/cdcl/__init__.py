"""CDCL solver package: arena kernel and public solver.

Split into two modules so the search engine and its API evolve
independently:

* :mod:`repro.solvers.cdcl.kernel` — the flat-arena search engine
  (:class:`ArenaKernel`, :func:`luby`),
* :mod:`repro.solvers.cdcl.solver` — the public :class:`CDCLSolver` API.
"""

from repro.solvers.cdcl.kernel import ArenaKernel, luby
from repro.solvers.cdcl.solver import CDCLSolver

__all__ = ["ArenaKernel", "CDCLSolver", "luby"]
