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
"""

from repro.solvers.base import SATSolver, SolverResult, SolverStats
from repro.solvers.brute_force import BruteForceSolver
from repro.solvers.dpll import DPLLSolver
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.walksat import WalkSATSolver
from repro.solvers.gsat import GSATSolver
from repro.solvers.registry import available_solvers, make_solver

__all__ = [
    "SATSolver",
    "SolverResult",
    "SolverStats",
    "BruteForceSolver",
    "DPLLSolver",
    "CDCLSolver",
    "WalkSATSolver",
    "GSATSolver",
    "available_solvers",
    "make_solver",
]
