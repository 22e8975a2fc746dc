"""repro — reproduction of "Boolean Satisfiability using Noise Based Logic".

The package implements the paper's NBL-SAT scheme end-to-end:

* :mod:`repro.cnf` — CNF formulas, DIMACS I/O, instance generators;
* :mod:`repro.noise` — basis noise carriers and the per-instance noise bank;
* :mod:`repro.hyperspace` — the NBL hyperspace algebra (superpositions,
  cube subspaces, the reference hyperspace τ_N);
* :mod:`repro.core` — the NBL-SAT engines (sampled and exact), Algorithm 1
  (single-operation SAT check), Algorithm 2 (assignment determination) and
  the SNR model;
* :mod:`repro.solvers` — classical baseline solvers (brute force, DPLL,
  CDCL, WalkSAT, GSAT);
* :mod:`repro.analog` — the analog block-level hardware realization;
* :mod:`repro.sbl` — the sinusoid-based realization; a telegraph-wave
  realization is ``SampledNBLEngine`` with a telegraph carrier, and
  :mod:`repro.rtw` keeps its diagnostic;
* :mod:`repro.hybrid` — the CPU + NBL-coprocessor hybrid solver;
* :mod:`repro.preprocess` — SatELite-style preprocessing (units, pure
  literals, subsumption/strengthening, blocked clauses, bounded variable
  elimination) with model reconstruction, run in front of any solver by
  ``SolveJob(preprocess=True)`` and by sessions built with
  ``make_session(spec, preprocess=True)``;
* :mod:`repro.incremental` — incremental solving sessions
  (``add_clause``/``solve(assumptions)``/``push``/``pop``) over every
  solver spec, native in the CDCL engine;
* :mod:`repro.runtime` — the high-throughput serving layer: batch
  ingestion, the job executor, per-instance solver selection and the
  sharded ``(fingerprint, assumptions)``-keyed result cache;
* :mod:`repro.service` — the always-on solve server and its client;
* :mod:`repro.telemetry` — structured tracing (nested spans), the
  process-wide metrics registry (Prometheus/JSON exporters) and the
  persistent ``BENCH_*.json`` performance trajectory;
* :mod:`repro.analysis` — SNR / convergence / discrimination analysis;
* :mod:`repro.experiments` — drivers reproducing the paper's figure and the
  derived tables.

This package, :mod:`repro.cnf` and :mod:`repro.solvers` are lazy
facades: a re-exported name is imported on first use. The classical path
(parse, preprocess, CDCL, proofs, runtime, service, CLI) imports no NumPy;
see ``docs/architecture.md`` for the layering rule.

Quickstart::

    from repro import NBLSATSolver
    from repro.cnf import CNFFormula

    formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
    solver = NBLSATSolver(engine="symbolic")
    result = solver.solve(formula)
    print(result.satisfiable, result.assignment)
"""

from repro._version import __version__
from repro._lazy import lazy_exports

__getattr__, __dir__, _exported = lazy_exports(
    __name__,
    {
        "repro.core": (
            "AssignmentResult",
            "CheckResult",
            "NBLConfig",
            "NBLSATSolver",
            "SampledNBLEngine",
            "SymbolicNBLEngine",
        ),
    },
)
__all__ = ["__version__", *_exported]
