"""repro.preprocess — SatELite-style preprocessing with model reconstruction.

Every clause and variable removed before a formula reaches the NBL engines
or the CPU baselines shrinks the hyperspace product and the search alike,
so this package sits in front of the whole solver stack:

* :class:`Preprocessor` — unit propagation, pure-literal elimination,
  subsumption + self-subsuming resolution, blocked clause elimination and
  bounded variable elimination, run to a fixpoint;
* :class:`PreprocessResult` — the reduced (renumbered) formula, the
  old→new variable map and the model :class:`ReconstructionStack`;
* frozen variables — assumption variables survive untouched, keeping
  incremental sessions and assumption-carrying jobs sound;
* :func:`preprocess_formula` — the one-shot helper. Preprocess-then-solve
  has one entry point, ``SolveJob(preprocess=True)`` in
  :mod:`repro.runtime`, which sessions built with
  ``make_session(spec, preprocess=True)`` run once per query.

This is the library's one clause simplifier: the CDCL kernel only reduces
its learned-clause database.

Quickstart::

    from repro.cnf import CNFFormula
    from repro.preprocess import preprocess_formula

    result = preprocess_formula(formula)
    if result.status == "REDUCED":
        model = solve(result.formula)              # any engine
        original_model = result.reconstruct(model) # back to the input
"""

from repro.preprocess.occurrence import ClauseDatabase
from repro.preprocess.pipeline import (
    REDUCED,
    SAT,
    TECHNIQUES,
    UNSAT,
    Preprocessor,
    PreprocessResult,
    PreprocessStats,
    preprocess_formula,
)
from repro.preprocess.reconstruction import (
    BlockedClause,
    EliminatedVariable,
    ForcedLiteral,
    ReconstructionStack,
)

__all__ = [
    "REDUCED",
    "SAT",
    "TECHNIQUES",
    "UNSAT",
    "BlockedClause",
    "ClauseDatabase",
    "EliminatedVariable",
    "ForcedLiteral",
    "Preprocessor",
    "PreprocessResult",
    "PreprocessStats",
    "ReconstructionStack",
    "preprocess_formula",
]
