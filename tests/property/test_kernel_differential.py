"""Differential fuzzing of the flat-arena CDCL kernel: arena vs brute force,
models checked, DRAT proofs checked.

A seeded corpus of random 3-SAT (several clause/variable ratios) plus
structured pigeonhole / coloring / parity instances is solved by the arena
kernel (:mod:`repro.solvers.cdcl.kernel`) and by brute-force enumeration,
and checked:

* the arena verdict matches brute force on every formula (zero
  mismatches),
* every SAT verdict ships a model that satisfies the formula,
* every UNSAT verdict ships a DRAT proof the in-repo RUP/RAT checker
  accepts (zero rejected proofs),
* half the corpus runs the arena kernel with aggressive restart /
  DB-reduction knobs, so the proofs cover clause deletion and
  compaction — not just the happy path.

``test_kernel_differential`` (200+ formulas) is the tier-1 acceptance
run; ``test_kernel_differential_smoke`` (50 formulas) is the fast-lane
subset CI selects by name; the ``slow``-marked variant re-rolls a
nightly-sized corpus via ``REPRO_FUZZ_ITERATIONS``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cnf.generators import random_ksat
from repro.cnf.structured import (
    complete_graph_edges,
    cycle_graph_edges,
    graph_coloring_formula,
    parity_chain_formula,
    pigeonhole_formula,
)
from repro.proofs import ProofLog, check_proof
from repro.solvers.brute_force import BruteForceSolver
from repro.solvers.cdcl import CDCLSolver

#: Clause/variable ratios: under, at and over the phase transition, plus a
#: dense band that is almost surely UNSAT (to exercise proof emission).
_RATIOS = (2.0, 3.0, 4.27, 5.5, 6.0)
_SMOKE_FORMULAS = 50
_FULL_FORMULAS = 200


def _corpus(seed: int, count: int, max_vars: int = 9):
    rng = np.random.default_rng(seed)
    corpus = []
    for index in range(count):
        ratio = _RATIOS[index % len(_RATIOS)]
        num_vars = int(rng.integers(5, max_vars + 1))
        num_clauses = max(1, round(ratio * num_vars))
        formula = random_ksat(
            num_vars, num_clauses, 3, seed=int(rng.integers(0, 2**31))
        )
        corpus.append((f"3sat[{index}] n={num_vars} r={ratio}", formula))
    corpus += [
        ("php(3,2)", pigeonhole_formula(3, 2)),
        ("php(4,3)", pigeonhole_formula(4, 3)),
        ("php(5,4)", pigeonhole_formula(5, 4)),
        ("color(C5,2)", graph_coloring_formula(cycle_graph_edges(5), 5, 2)),
        ("color(C5,3)", graph_coloring_formula(cycle_graph_edges(5), 5, 3)),
        ("color(K4,3)", graph_coloring_formula(complete_graph_edges(4), 4, 3)),
        ("parity(5,1)", parity_chain_formula(5, 1)),
        ("parity(6,0)", parity_chain_formula(6, 0)),
    ]
    return corpus


def _aggressive_solver() -> CDCLSolver:
    """Arena solver tuned so tiny instances still restart and reduce —
    the paths a default-knob run never reaches."""
    return CDCLSolver(restart_base=3, reduce_interval=8, keep_lbd=1)


def _run_kernel_differential(corpus) -> tuple[int, int]:
    """Shared fuzz loop; returns (formulas checked, proofs checked)."""
    brute = BruteForceSolver()
    proofs_checked = 0
    for index, (label, formula) in enumerate(corpus):
        truth = brute.solve(formula)
        assert truth.status in ("SAT", "UNSAT")

        arena = CDCLSolver() if index % 2 == 0 else _aggressive_solver()
        log = ProofLog()
        arena_result = arena.solve(formula, proof=log)

        assert arena_result.status == truth.status, (
            f"{label}: arena kernel says {arena_result.status}, "
            f"brute force says {truth.status}"
        )
        if arena_result.is_sat:
            assert arena_result.assignment is not None, f"{label}: SAT without model"
            assert formula.evaluate(arena_result.assignment.as_dict()), (
                f"{label}: arena returned a non-satisfying assignment"
            )
        else:
            verdict = check_proof(formula, log.text())
            assert verdict, f"{label}: arena proof rejected: {verdict.reason}"
            proofs_checked += 1
    return len(corpus), proofs_checked


def test_kernel_differential(seed):
    """Tier-1 acceptance run: 200+ formulas, zero mismatches, all proofs."""
    checked, proofs = _run_kernel_differential(
        _corpus(seed + 11, _FULL_FORMULAS)
    )
    assert checked >= 200, f"only {checked} formulas checked"
    assert proofs >= 40, f"only {proofs} UNSAT proofs checked"


def test_kernel_differential_smoke(seed):
    """Fast-lane subset (50 formulas) selected by name in CI."""
    checked, _ = _run_kernel_differential(
        _corpus(seed + 12, _SMOKE_FORMULAS)[:_SMOKE_FORMULAS]
    )
    assert checked == _SMOKE_FORMULAS


@pytest.mark.slow
def test_kernel_differential_extended(seed):
    """Nightly-sized corpus (REPRO_FUZZ_ITERATIONS, default 1000)."""
    iterations = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "1000"))
    _run_kernel_differential(_corpus(seed + 13, iterations, max_vars=11))
