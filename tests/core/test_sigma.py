"""Tests for the Σ_N construction (repro.core.sigma)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnf.evaluate import satisfying_minterm_mask
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.cnf.paper_instances import example6_instance, example7_instance
from repro.core.sigma import (
    clause_minterm_sets,
    clause_superposition_samples,
    satisfying_minterms,
    sigma_samples,
)
from repro.exceptions import EngineError
from repro.hyperspace.superposition import minterm_noise_product
from repro.noise.bank import NoiseBank
from repro.noise.telegraph import BipolarCarrier


class TestSymbolicSigma:
    def test_clause_minterm_sets_match_clause_masks(self):
        formula = example6_instance()
        sets = clause_minterm_sets(formula)
        assert len(sets) == formula.num_clauses
        for clause_set, clause in zip(sets, formula):
            assert clause_set.count() == 3  # each 2-literal clause over n=2

    def test_satisfying_minterms_equal_brute_force(self):
        for seed in range(3):
            formula = random_ksat(5, 12, 3, seed=seed)
            mask = satisfying_minterm_mask(formula)
            assert np.array_equal(satisfying_minterms(formula).mask, mask)

    def test_unsat_instance_has_empty_set(self):
        assert satisfying_minterms(example7_instance()).count() == 0

    def test_empty_clause_forces_empty_set(self):
        formula = CNFFormula([[1, 2], []], num_variables=2)
        assert satisfying_minterms(formula).count() == 0


class TestSampledSigma:
    def test_example6_expansion_matches_paper(self):
        """Example 6: Σ_N expands into 3 minterm products per clause."""
        formula = example6_instance()
        bank = NoiseBank(2, 2, carrier=BipolarCarrier(), seed=0)
        block = bank.sample_block(2_000)
        z1 = clause_superposition_samples(block, 1, formula)
        # Clause 1 = (x1 + x2): satisfied by minterms 0b01, 0b10, 0b11.
        expansion = sum(minterm_noise_product(block, 1, idx) for idx in (1, 2, 3))
        assert np.allclose(z1, expansion)

    def test_sigma_is_product_of_clause_superpositions(self):
        formula = example6_instance()
        bank = NoiseBank(2, 2, carrier=BipolarCarrier(), seed=1)
        block = bank.sample_block(1_000)
        sigma = sigma_samples(block, formula)
        manual = clause_superposition_samples(block, 1, formula) * \
            clause_superposition_samples(block, 2, formula)
        assert np.allclose(sigma, manual)

    def test_empty_clause_zeroes_sigma(self):
        formula = CNFFormula([[1], []], num_variables=1)
        bank = NoiseBank(2, 1, carrier=BipolarCarrier(), seed=2)
        block = bank.sample_block(100)
        assert np.allclose(sigma_samples(block, formula), 0.0)

    def test_shape_mismatch_raises(self):
        formula = example6_instance()
        bank = NoiseBank(3, 2, carrier=BipolarCarrier(), seed=0)
        block = bank.sample_block(10)
        with pytest.raises(EngineError):
            sigma_samples(block, formula)

    def test_variable_mismatch_raises(self):
        formula = example6_instance()
        bank = NoiseBank(2, 3, carrier=BipolarCarrier(), seed=0)
        block = bank.sample_block(10)
        with pytest.raises(EngineError):
            sigma_samples(block, formula)

    def test_bad_block_shape_raises(self):
        with pytest.raises(EngineError):
            sigma_samples(np.zeros((2, 2, 10)), example6_instance())
