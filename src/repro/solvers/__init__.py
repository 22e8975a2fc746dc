"""Classical baseline SAT solvers.

The paper positions NBL-SAT against the standard complete (GRASP, Chaff,
BerkMin, MiniSat — DPLL/CDCL style) and stochastic (WalkSAT, GSAT) solvers.
This subpackage implements representatives of both families behind one
interface so the validation and comparison experiments have trustworthy
ground truth and classical reference points:

* :class:`BruteForceSolver` — exhaustive enumeration (also a model counter);
* :class:`DPLLSolver` — unit propagation + pure literals + branching;
* :class:`CDCLSolver` — two-watched-literal propagation over a flat
  int-array clause arena, 1-UIP clause learning, VSIDS branching, LBD
  clause-database reduction and Luby restarts (see
  :mod:`repro.solvers.cdcl`);
* :class:`WalkSATSolver` / :class:`GSATSolver` — stochastic local search
  (incomplete: they can only answer "SAT" or "unknown").

Names are imported on first use, so taking :class:`CDCLSolver` or the
registry never loads the NumPy-backed brute-force enumerator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.solvers.base": ("SATSolver", "SolverResult", "SolverStats"),
        "repro.solvers.brute_force": ("BruteForceSolver",),
        "repro.solvers.dpll": ("DPLLSolver",),
        "repro.solvers.cdcl": ("CDCLSolver",),
        "repro.solvers.walksat": ("WalkSATSolver",),
        "repro.solvers.gsat": ("GSATSolver",),
        "repro.solvers.registry": ("available_solvers", "make_solver"),
    },
)
