"""Property tests for formula fingerprints and the assumption-aware cache key.

The runtime's result cache is only sound if

* :meth:`CNFFormula.fingerprint` is invariant under clause reordering and
  literal reordering (structurally identical formulas must share answers),
* the fingerprint is sensitive to any literal flip or clause change
  (different formulas must not share answers),
* :func:`solve_cache_key` never maps different ``(formula, assumption
  set)`` pairs to the same key, and
* a job's key is its own formula's key whether or not it preprocesses.

Each property is exercised over a seeded stream of random formulas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.runtime import ResultCache, SolveJob, SolveOutcome, solve_cache_key

NUM_FORMULAS = 40


def _random_formulas(seed: int, count: int = NUM_FORMULAS):
    rng = np.random.default_rng(seed)
    for index in range(count):
        num_vars = int(rng.integers(4, 12))
        num_clauses = int(rng.integers(3, 4 * num_vars))
        yield (
            rng,
            random_ksat(num_vars, num_clauses, 3, seed=int(rng.integers(0, 2**31))),
        )


class TestFingerprintInvariance:
    def test_clause_permutation_invariance(self, seed):
        for rng, formula in _random_formulas(seed):
            clauses = formula.to_ints()
            order = rng.permutation(len(clauses))
            shuffled = CNFFormula.from_ints(
                [clauses[i] for i in order], formula.num_variables
            )
            assert shuffled.fingerprint() == formula.fingerprint()

    def test_literal_permutation_invariance(self, seed):
        for rng, formula in _random_formulas(seed + 1):
            reordered = CNFFormula.from_ints(
                [
                    [clause[i] for i in rng.permutation(len(clause))]
                    for clause in formula.to_ints()
                ],
                formula.num_variables,
            )
            assert reordered.fingerprint() == formula.fingerprint()

    def test_fingerprint_stable_across_instances(self, seed):
        for _, formula in _random_formulas(seed + 2, count=10):
            rebuilt = CNFFormula.from_ints(
                formula.to_ints(), formula.num_variables
            )
            assert rebuilt.fingerprint() == formula.fingerprint()


class TestFingerprintSensitivity:
    def test_any_single_literal_flip_changes_fingerprint(self, seed):
        for _, formula in _random_formulas(seed + 3, count=12):
            clauses = formula.to_ints()
            for clause_index in range(len(clauses)):
                for literal_index in range(len(clauses[clause_index])):
                    mutated = [list(clause) for clause in clauses]
                    mutated[clause_index][literal_index] *= -1
                    flipped = CNFFormula.from_ints(
                        mutated, formula.num_variables
                    )
                    assert flipped.fingerprint() != formula.fingerprint(), (
                        f"flip of clause {clause_index} literal "
                        f"{literal_index} went unnoticed"
                    )

    def test_dropping_a_clause_changes_fingerprint(self, seed):
        for rng, formula in _random_formulas(seed + 4, count=12):
            clauses = formula.to_ints()
            victim = int(rng.integers(0, len(clauses)))
            reduced = CNFFormula.from_ints(
                clauses[:victim] + clauses[victim + 1 :], formula.num_variables
            )
            if sorted(reduced.to_ints()) == sorted(clauses):
                continue  # the victim had a duplicate; dropping it is a no-op
            assert reduced.fingerprint() != formula.fingerprint()

    def test_variable_count_is_part_of_the_fingerprint(self):
        narrow = CNFFormula.from_ints([[1, 2]], num_variables=2)
        wide = CNFFormula.from_ints([[1, 2]], num_variables=3)
        assert narrow.fingerprint() != wide.fingerprint()


class TestCacheKey:
    def test_no_assumptions_is_the_bare_fingerprint(self, seed):
        for _, formula in _random_formulas(seed + 5, count=5):
            assert solve_cache_key(formula.fingerprint()) == formula.fingerprint()
            job = SolveJob(formula=formula, solver="cdcl")
            assert job.cache_key == formula.fingerprint()

    def test_job_key_is_own_fingerprint_with_or_without_preprocess(self, seed):
        for rng, formula in _random_formulas(seed + 9, count=10):
            size = int(rng.integers(0, 4))
            variables = rng.choice(formula.num_variables, size=size, replace=False)
            assumptions = tuple(
                int(v) + 1 if rng.random() < 0.5 else -(int(v) + 1)
                for v in variables
            )
            for preprocess in (False, True):
                job = SolveJob(
                    formula=formula,
                    solver="cdcl",
                    assumptions=assumptions,
                    preprocess=preprocess,
                )
                assert job.cache_key == solve_cache_key(
                    formula.fingerprint(), assumptions
                )

    def test_assumption_order_is_canonical(self, seed):
        for rng, formula in _random_formulas(seed + 6, count=10):
            variables = rng.choice(formula.num_variables, size=3, replace=False)
            lits = [int(v) + 1 for v in variables]
            a = SolveJob(formula=formula, solver="cdcl", assumptions=tuple(lits))
            b = SolveJob(
                formula=formula, solver="cdcl", assumptions=tuple(reversed(lits))
            )
            assert a.cache_key == b.cache_key

    def test_distinct_assumption_sets_never_collide(self, seed):
        """Exhaustive over all assumption sets of size <= 2 on 6 variables,
        plus random larger sets: the key must be injective in the set."""
        rng = np.random.default_rng(seed + 7)
        fingerprint = "f" * 64
        sets: list[tuple[int, ...]] = [()]
        literals = [lit for v in range(1, 7) for lit in (v, -v)]
        sets += [(lit,) for lit in literals]
        sets += [
            (a, b)
            for i, a in enumerate(literals)
            for b in literals[i + 1 :]
            if a != b
        ]
        for _ in range(200):
            size = int(rng.integers(3, 7))
            chosen = rng.choice(len(literals), size=size, replace=False)
            candidate = tuple(sorted({literals[i] for i in chosen}))
            sets.append(candidate)
        keys: dict[str, tuple[int, ...]] = {}
        for assumptions in sets:
            canonical = tuple(sorted(set(assumptions)))
            key = solve_cache_key(fingerprint, canonical)
            if key in keys:
                assert keys[key] == canonical, (
                    f"collision: {keys[key]} vs {canonical}"
                )
            keys[key] = canonical

    def test_different_formulas_same_assumptions_never_collide(self, seed):
        keys = set()
        formulas = 0
        for _, formula in _random_formulas(seed + 8, count=15):
            key = solve_cache_key(formula.fingerprint(), (1, -2))
            assert key not in keys
            keys.add(key)
            formulas += 1
        assert len(keys) == formulas

    def test_cache_separates_assumption_sets(self):
        """End to end: the cache must never answer an assumption query with
        the assumption-free outcome (or vice versa)."""
        formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
        cache = ResultCache()
        free = SolveJob(formula=formula, solver="cdcl")
        assumed = SolveJob(formula=formula, solver="cdcl", assumptions=(1, 2))
        cache.put(
            SolveOutcome(
                job_id=free.job_id,
                status="SAT",
                solver="cdcl",
                fingerprint=free.fingerprint,
                assignment=(1, -2),
                verified=True,
            )
        )
        assert cache.get(free.cache_key) is not None
        assert cache.get(assumed.cache_key) is None
        cache.put(
            SolveOutcome(
                job_id=assumed.job_id,
                status="UNSAT",
                solver="cdcl",
                fingerprint=assumed.fingerprint,
                assumptions=assumed.assumptions,
                verified=True,
            )
        )
        assert cache.get(assumed.cache_key).status == "UNSAT"
        assert cache.get(free.cache_key).status == "SAT"

    def test_job_rejects_out_of_range_assumptions(self):
        from repro.exceptions import RuntimeSubsystemError

        formula = CNFFormula.from_ints([[1, 2]])
        with pytest.raises(RuntimeSubsystemError):
            SolveJob(formula=formula, solver="cdcl", assumptions=(5,))
        with pytest.raises(RuntimeSubsystemError):
            SolveJob(formula=formula, solver="cdcl", assumptions=(0,))
