"""Differential testing of preprocess → solve → reconstruct.

Plugs the preprocessing pipeline into the existing differential fuzz
harness: on the same ≥200-formula seeded corpus, the
``preprocess → solve reduced → reconstruct model`` route must agree with
brute-force ground truth for every registered complete solver, including
the instances preprocessing decides outright (the corpus provably
contains UNSAT-detected-during-preprocessing cases). Preprocessing jobs,
and incremental sessions that run one per query, are checked against
fresh solves under random assumption sets as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.paper_instances import section4_unsat_instance
from repro.incremental import make_session
from repro.preprocess import Preprocessor, preprocess_formula
from repro.runtime import SolveJob, execute_job
from repro.solvers.brute_force import BruteForceSolver
from repro.solvers.registry import make_solver

from test_differential_fuzz import (
    COMPLETE_SOLVERS,
    _full_corpus,
    _random_assumption_sets,
)


def _assert_reconstruction(label, formula, reduction, reduced_model=None):
    model = reduction.reconstruct(reduced_model)
    assert model.is_complete(formula.num_variables), (
        f"{label}: reconstructed model is partial"
    )
    assert formula.evaluate(model.as_dict()), (
        f"{label}: reconstructed model does not satisfy the original"
    )


def test_preprocess_solve_reconstruct_agrees_with_direct_solve(seed):
    """≥200 seeded formulas: the preprocessed route matches ground truth."""
    corpus = _full_corpus(seed) + [("section4-unsat", section4_unsat_instance())]
    assert len(corpus) >= 200
    brute = BruteForceSolver()
    solvers = {name: make_solver(name) for name in COMPLETE_SOLVERS}
    decided_unsat = 0
    for label, formula in corpus:
        truth = brute.solve(formula)
        reduction = preprocess_formula(formula)
        if reduction.status == "UNSAT":
            decided_unsat += 1
            assert truth.is_unsat, (
                f"{label}: preprocessing refuted a satisfiable formula"
            )
            continue
        if reduction.status == "SAT":
            assert truth.is_sat, (
                f"{label}: preprocessing 'satisfied' an UNSAT formula"
            )
            _assert_reconstruction(label, formula, reduction)
            continue
        for name, solver in solvers.items():
            inner = solver.solve(reduction.formula)
            assert inner.status == truth.status, (
                f"{label}: {name} on the reduced formula says {inner.status}, "
                f"brute force says {truth.status}"
            )
            if inner.is_sat:
                _assert_reconstruction(
                    label, formula, reduction, inner.assignment.as_dict()
                )
    # The corpus must genuinely exercise the UNSAT-during-preprocessing
    # path (pigeonhole instances and the paper's Section IV UNSAT formula
    # are refuted by elimination alone).
    assert decided_unsat >= 1


def test_solver_preprocess_hook_agrees(seed):
    """`SolveJob(preprocess=True)` ≡ plain solve, per solver."""
    corpus = _full_corpus(seed, count=48)
    brute = BruteForceSolver()
    for name in COMPLETE_SOLVERS:
        for label, formula in corpus:
            truth = brute.solve(formula)
            outcome = execute_job(
                SolveJob(formula=formula, solver=name, preprocess=True)
            )
            assert outcome.status == truth.status, (
                f"{label}: {name} with preprocess=True says {outcome.status}, "
                f"brute force says {truth.status}"
            )
            if outcome.status == "SAT":
                assert formula.evaluate(outcome.assignment_dict())


def test_stochastic_solver_never_wrong_with_preprocessing(seed):
    """WalkSAT + pipeline: SAT answers carry real models, UNSAT only from
    the pipeline's (sound) refutation."""
    brute = BruteForceSolver()
    for label, formula in _full_corpus(seed, count=40):
        truth = brute.solve(formula)
        outcome = execute_job(
            SolveJob(formula=formula, solver="walksat", seed=seed, preprocess=True)
        )
        if outcome.status == "SAT":
            assert truth.is_sat, f"{label}: walksat SAT on UNSAT instance"
            assert formula.evaluate(outcome.assignment_dict())
        elif outcome.status == "UNSAT":
            assert truth.is_unsat, (
                f"{label}: preprocessing refuted a satisfiable formula"
            )


def test_preprocessed_sessions_agree_under_assumptions(seed):
    """Re-solve sessions with per-query preprocessing match fresh solves."""
    rng = np.random.default_rng(seed + 11)
    corpus = _full_corpus(seed, count=45)[::3]
    brute = BruteForceSolver()
    for label, formula in corpus:
        session = make_session("cdcl", base_formula=formula, preprocess=True)
        for assumptions in _random_assumption_sets(formula, rng):
            truth = brute.solve(formula.with_assumptions(assumptions))
            result = session.solve(assumptions=assumptions)
            assert result.status == truth.status, (
                f"{label} assuming {assumptions}: preprocessed session says "
                f"{result.status}, fresh brute force says {truth.status}"
            )
            if result.is_sat:
                model = result.assignment.as_dict()
                assert all(model[abs(a)] == (a > 0) for a in assumptions)
                assert formula.evaluate(model)


def test_preprocessing_is_deterministic(seed):
    """Same formula, same configuration → identical reduced instance."""
    for label, formula in _full_corpus(seed, count=12):
        first = Preprocessor().preprocess(formula)
        second = Preprocessor().preprocess(formula)
        assert first.status == second.status, label
        assert first.formula == second.formula, label
        assert first.variable_map == second.variable_map, label


@pytest.mark.slow
def test_preprocess_differential_extended(seed):
    """Nightly-sized corpus for the preprocessed route."""
    import os

    iterations = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "1000")) // 2
    brute = BruteForceSolver()
    from test_differential_fuzz import _random_corpus

    for label, formula in _random_corpus(seed + 9, iterations, max_vars=11):
        truth = brute.solve(formula)
        outcome = execute_job(
            SolveJob(formula=formula, solver="cdcl", preprocess=True)
        )
        assert outcome.status == truth.status, (
            f"{label}: preprocessed cdcl says {outcome.status}, "
            f"brute force says {truth.status}"
        )
        if outcome.status == "SAT":
            assert formula.evaluate(outcome.assignment_dict())
