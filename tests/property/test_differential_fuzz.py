"""Differential fuzzing across the whole solver stack.

A seeded corpus of ≥200 formulas — uniform random 3-SAT at several
clause/variable ratios plus structured pigeonhole / graph-colouring /
parity instances — is solved by every registered complete solver and
checked against brute-force enumeration as ground truth:

* verdict agreement (zero cross-solver disagreements),
* every returned SAT assignment actually satisfies the formula,
* stochastic local search (WalkSAT, GSAT) never claims SAT on an UNSAT
  instance,
* incremental-vs-fresh equivalence: ``session.solve(assumptions)`` answers
  exactly like solving the formula with the assumption unit clauses
  appended — for the native CDCL session, the generic re-solve session and
  the exact NBL frontend alike,
* proof soundness: every UNSAT verdict CDCL produces — solving directly
  *and* through the preprocessing pipeline — ships a DRAT proof that the
  in-repo RUP/RAT checker accepts (≥200 proof-checked verdicts per run).

The corpus is deterministic (derived from the suite's master ``seed``
fixture), so any failure reproduces exactly. The ``slow``-marked variant
re-rolls a much larger corpus (``REPRO_FUZZ_ITERATIONS``, default 1000)
for nightly runs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.cnf.structured import (
    complete_graph_edges,
    cycle_graph_edges,
    graph_coloring_formula,
    parity_chain_formula,
    pigeonhole_formula,
)
from repro.incremental import make_session
from repro.solvers.brute_force import BruteForceSolver
from repro.solvers.registry import make_solver

#: Clause/variable ratios for the random 3-SAT corpus: well below, around
#: and well above the satisfiability phase transition (~4.27).
RATIOS = (2.0, 3.0, 4.27, 5.5)
#: Random formulas in the tier-1 corpus (structured instances add more).
NUM_RANDOM_FORMULAS = 200

#: Deterministic complete solvers checked on the full corpus.
COMPLETE_SOLVERS = ("dpll", "cdcl")
#: The hybrid solver's symbolic coprocessor enumerates minterm masks per
#: decision, so it runs on every ``HYBRID_STRIDE``-th corpus entry.
HYBRID_STRIDE = 20


def _random_corpus(seed: int, count: int, max_vars: int = 9):
    rng = np.random.default_rng(seed)
    corpus = []
    for index in range(count):
        ratio = RATIOS[index % len(RATIOS)]
        num_vars = int(rng.integers(5, max_vars + 1))
        num_clauses = max(1, round(ratio * num_vars))
        formula = random_ksat(
            num_vars, num_clauses, 3, seed=int(rng.integers(0, 2**31))
        )
        corpus.append((f"3sat[{index}] n={num_vars} r={ratio}", formula))
    return corpus


def _structured_corpus():
    return [
        ("php(2,2)", pigeonhole_formula(2, 2)),
        ("php(3,2)", pigeonhole_formula(3, 2)),
        ("php(3,3)", pigeonhole_formula(3, 3)),
        ("php(4,3)", pigeonhole_formula(4, 3)),
        ("color(C4,2)", graph_coloring_formula(cycle_graph_edges(4), 4, 2)),
        ("color(C5,2)", graph_coloring_formula(cycle_graph_edges(5), 5, 2)),
        ("color(K4,3)", graph_coloring_formula(complete_graph_edges(4), 4, 3)),
        ("color(K3,3)", graph_coloring_formula(complete_graph_edges(3), 3, 3)),
        ("parity(5,1)", parity_chain_formula(5, 1)),
        ("parity(6,0)", parity_chain_formula(6, 0)),
    ]


def _full_corpus(seed: int, count: int = NUM_RANDOM_FORMULAS):
    return _random_corpus(seed, count) + _structured_corpus()


def _unsat_dense_corpus(seed: int, count: int):
    """Random 3-SAT far above the phase transition (almost surely UNSAT)."""
    rng = np.random.default_rng(seed)
    corpus = []
    for index in range(count):
        num_vars = int(rng.integers(5, 9))
        formula = random_ksat(
            num_vars, 6 * num_vars, 3, seed=int(rng.integers(0, 2**31))
        )
        corpus.append((f"dense[{index}] n={num_vars}", formula))
    return corpus


def _assert_model_satisfies(label: str, solver_name: str, result, formula):
    assert result.assignment is not None, f"{label}: {solver_name} SAT sans model"
    assert formula.evaluate(result.assignment.as_dict()), (
        f"{label}: {solver_name} returned a non-satisfying assignment"
    )


def _differential_run(corpus, seed: int) -> None:
    """Core fuzz loop, shared by the tier-1 and nightly entry points."""
    brute = BruteForceSolver()
    complete = {name: make_solver(name) for name in COMPLETE_SOLVERS}
    stochastic = {
        name: make_solver(name, max_flips=300, max_tries=2, seed=seed + index)
        for index, name in enumerate(("walksat", "gsat"))
    }
    hybrid = make_solver("hybrid")

    for index, (label, formula) in enumerate(corpus):
        truth = brute.solve(formula)
        assert truth.status in ("SAT", "UNSAT")
        if truth.is_sat:
            _assert_model_satisfies(label, "brute-force", truth, formula)

        for name, solver in complete.items():
            result = solver.solve(formula)
            assert result.status == truth.status, (
                f"{label}: {name} says {result.status}, "
                f"brute force says {truth.status}"
            )
            if result.is_sat:
                _assert_model_satisfies(label, name, result, formula)

        if index % HYBRID_STRIDE == 0:
            result = hybrid.solve(formula)
            assert result.status == truth.status, (
                f"{label}: hybrid says {result.status}, "
                f"brute force says {truth.status}"
            )
            if result.is_sat:
                _assert_model_satisfies(label, "hybrid", result, formula)

        for name, solver in stochastic.items():
            result = solver.solve(formula)
            assert result.status in ("SAT", "UNKNOWN"), (
                f"{label}: incomplete {name} claimed {result.status}"
            )
            if result.is_sat:
                assert truth.is_sat, f"{label}: {name} SAT on UNSAT instance"
                _assert_model_satisfies(label, name, result, formula)


def _random_assumption_sets(formula: CNFFormula, rng, count: int = 3):
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, min(3, formula.num_variables) + 1))
        variables = rng.choice(formula.num_variables, size=size, replace=False)
        polarities = rng.integers(0, 2, size=size)
        sets.append(
            tuple(
                int(var + 1) if positive else -int(var + 1)
                for var, positive in zip(variables, polarities)
            )
        )
    return sets


def test_differential_fuzz_complete_solvers(seed):
    """≥200 seeded formulas, zero cross-solver disagreements allowed."""
    corpus = _full_corpus(seed)
    assert len(corpus) >= 200
    _differential_run(corpus, seed)


def test_incremental_vs_fresh_equivalence(seed):
    """``solve(assumptions)`` ≡ solving with assumption units appended.

    One warm CDCL session answers several assumption-set queries per
    formula; each answer is checked against brute force on the
    assumption-strengthened formula, and the generic DPLL re-solve session
    must agree as well.
    """
    rng = np.random.default_rng(seed + 1)
    corpus = _full_corpus(seed, count=60)[::3]
    brute = BruteForceSolver()
    for label, formula in corpus:
        cdcl_session = make_session("cdcl", base_formula=formula)
        dpll_session = make_session("dpll", base_formula=formula)
        for assumptions in _random_assumption_sets(formula, rng):
            strengthened = formula.with_assumptions(assumptions)
            truth = brute.solve(strengthened)
            incremental = cdcl_session.solve(assumptions=assumptions)
            assert incremental.status == truth.status, (
                f"{label} assuming {assumptions}: warm CDCL session says "
                f"{incremental.status}, fresh brute force says {truth.status}"
            )
            fallback = dpll_session.solve(assumptions=assumptions)
            assert fallback.status == truth.status, (
                f"{label} assuming {assumptions}: DPLL re-solve session says "
                f"{fallback.status}, fresh brute force says {truth.status}"
            )
            if incremental.is_sat:
                model = incremental.assignment.as_dict()
                assert all(model[abs(a)] == (a > 0) for a in assumptions)
                assert formula.evaluate(model)


def test_nbl_symbolic_session_agrees(seed):
    """The exact NBL frontend joins the differential net on small instances."""
    rng = np.random.default_rng(seed + 2)
    brute = BruteForceSolver()
    for label, formula in _structured_corpus():
        if formula.num_variables > 12:
            continue
        session = make_session("nbl-symbolic", base_formula=formula)
        truth = brute.solve(formula)
        result = session.solve()
        assert result.status == truth.status, (
            f"{label}: nbl-symbolic says {result.status}, "
            f"brute force says {truth.status}"
        )
        for assumptions in _random_assumption_sets(formula, rng, count=2):
            truth = brute.solve(formula.with_assumptions(assumptions))
            result = session.solve(assumptions=assumptions)
            assert result.status == truth.status, (
                f"{label} assuming {assumptions}: nbl-symbolic says "
                f"{result.status}, brute force says {truth.status}"
            )


def test_unsat_verdicts_are_proof_checked(seed, tmp_path, monkeypatch):
    """Every CDCL UNSAT verdict ships a checker-accepted DRAT proof.

    Both execution paths are covered per UNSAT formula — solving the
    original directly and solving as a preprocessing job (whose
    elimination lines must splice soundly in front of the translated
    residual derivation) — for ≥200 proof-checked verdicts with zero
    rejections. A ``cdcl`` job without assumptions skips the pipeline by
    default, so the job here is routed through it, as a job with
    assumptions would be.
    """
    from repro.proofs import ProofLog, check_proof, check_proof_file
    from repro.runtime import SolveJob, execute_job
    from repro.runtime import pool as pool_module

    monkeypatch.setattr(pool_module, "_runs_pipeline", lambda job: job.preprocess)

    solver = make_solver("cdcl")
    corpus = _full_corpus(seed) + _unsat_dense_corpus(seed + 5, 110)
    checked = 0
    for label, formula in corpus:
        direct_log = ProofLog()
        result = solver.solve(formula, proof=direct_log)
        if not result.is_unsat:
            continue
        verdict = check_proof(formula, direct_log.text())
        assert verdict, f"{label} direct proof rejected: {verdict.reason}"
        checked += 1
        proof_path = str(tmp_path / "preprocessed.drat")
        preprocessed = execute_job(
            SolveJob(formula=formula, solver="cdcl", preprocess=True, proof=proof_path)
        )
        assert preprocessed.status == "UNSAT", (
            f"{label}: preprocessed path disagrees with direct UNSAT"
        )
        verdict = check_proof_file(formula, proof_path)
        assert verdict, f"{label} preprocessed proof rejected: {verdict.reason}"
        checked += 1
    assert checked >= 200, f"only {checked} proof-checked UNSAT verdicts"


@pytest.mark.slow
def test_differential_fuzz_extended(seed):
    """Nightly-sized corpus (REPRO_FUZZ_ITERATIONS, default 1000)."""
    iterations = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "1000"))
    corpus = _random_corpus(seed + 3, iterations, max_vars=11)
    corpus += _structured_corpus()
    _differential_run(corpus, seed + 3)


@pytest.mark.slow
def test_incremental_equivalence_extended(seed):
    """Nightly-sized incremental-vs-fresh sweep with deeper sessions."""
    iterations = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "1000")) // 5
    rng = np.random.default_rng(seed + 4)
    brute = BruteForceSolver()
    for label, formula in _random_corpus(seed + 4, iterations, max_vars=10):
        session = make_session("cdcl", base_formula=formula)
        for assumptions in _random_assumption_sets(formula, rng, count=5):
            truth = brute.solve(formula.with_assumptions(assumptions))
            result = session.solve(assumptions=assumptions)
            assert result.status == truth.status, (
                f"{label} assuming {assumptions}: session says "
                f"{result.status}, brute force says {truth.status}"
            )
