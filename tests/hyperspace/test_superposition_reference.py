"""Tests for the sampled superposition builders and the τ_N reference hyperspace.

These tests verify the central orthogonality identities of the paper on
finite sample windows: correlations that should vanish are small, and
correlations that should equal a power of E[x²] match it within sampling
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import HyperspaceError
from repro.hyperspace.minterm import MintermSet
from repro.hyperspace.reference import reference_hyperspace, reference_minterms
from repro.hyperspace.superposition import (
    clause_cube_subspace,
    clause_full_superposition,
    clause_literal_subspace,
    minterm_noise_product,
)
from repro.noise.bank import NoiseBank
from repro.noise.telegraph import BipolarCarrier
from repro.noise.uniform import UniformCarrier

SAMPLES = 120_000


@pytest.fixture(scope="module")
def small_block():
    """One clause, two variables, bipolar carriers — exact unit powers."""
    bank = NoiseBank(num_clauses=1, num_variables=2, carrier=BipolarCarrier(), seed=0)
    return bank.sample_block(SAMPLES)


@pytest.fixture(scope="module")
def two_clause_block():
    bank = NoiseBank(num_clauses=2, num_variables=2, carrier=BipolarCarrier(), seed=1)
    return bank.sample_block(SAMPLES)


class TestClauseSuperpositions:
    def test_full_superposition_is_sum_of_minterm_products(self, small_block):
        total = clause_full_superposition(small_block, 1)
        by_minterm = sum(
            minterm_noise_product(small_block, 1, index) for index in range(4)
        )
        assert np.allclose(total, by_minterm)

    def test_cube_subspace_with_full_binding_is_minterm(self, small_block):
        cube = clause_cube_subspace(small_block, 1, {1: True, 2: False})
        minterm = minterm_noise_product(small_block, 1, 0b01)
        assert np.allclose(cube, minterm)

    def test_literal_subspace_is_half_of_full(self, small_block):
        positive = clause_literal_subspace(small_block, 1, 1)
        negative = clause_literal_subspace(small_block, 1, -1)
        assert np.allclose(positive + negative, clause_full_superposition(small_block, 1))

    def test_distinct_minterms_are_orthogonal(self, small_block):
        a = minterm_noise_product(small_block, 1, 0)
        b = minterm_noise_product(small_block, 1, 3)
        assert abs(np.mean(a * b)) < 0.02

    def test_minterm_self_correlation_is_power(self, small_block):
        a = minterm_noise_product(small_block, 1, 2)
        assert np.mean(a * a) == pytest.approx(1.0)  # bipolar power = 1

    def test_minterm_self_correlation_uniform(self):
        bank = NoiseBank(1, 2, carrier=UniformCarrier(), seed=2)
        block = bank.sample_block(SAMPLES)
        a = minterm_noise_product(block, 1, 1)
        assert np.mean(a * a) == pytest.approx((1.0 / 12.0) ** 2, rel=0.1)

    def test_invalid_clause_index(self, small_block):
        with pytest.raises(HyperspaceError):
            clause_full_superposition(small_block, 2)
        with pytest.raises(HyperspaceError):
            clause_full_superposition(small_block, 0)

    def test_invalid_binding_variable(self, small_block):
        with pytest.raises(HyperspaceError):
            clause_cube_subspace(small_block, 1, {5: True})

    def test_invalid_minterm_index(self, small_block):
        with pytest.raises(HyperspaceError):
            minterm_noise_product(small_block, 1, 4)

    def test_invalid_block_shape(self):
        with pytest.raises(HyperspaceError):
            clause_full_superposition(np.zeros((2, 2, 3, 10)), 1)


class TestReferenceHyperspace:
    def test_tau_is_sum_of_valid_minterm_products(self, two_clause_block):
        """Equation 2: τ_N expands into the 2^n all-clause minterm products."""
        tau = reference_hyperspace(two_clause_block)
        expansion = np.zeros(two_clause_block.shape[-1])
        for index in range(4):
            product = np.ones(two_clause_block.shape[-1])
            for clause in (1, 2):
                product = product * minterm_noise_product(two_clause_block, clause, index)
            expansion += product
        assert np.allclose(tau, expansion)

    def test_binding_halves_the_expansion(self, two_clause_block):
        bound = reference_hyperspace(two_clause_block, {1: True})
        expansion = np.zeros(two_clause_block.shape[-1])
        for index in (0b01, 0b11):  # x1 = 1 minterms
            product = np.ones(two_clause_block.shape[-1])
            for clause in (1, 2):
                product = product * minterm_noise_product(two_clause_block, clause, index)
            expansion += product
        assert np.allclose(bound, expansion)

    def test_invalid_binding(self, two_clause_block):
        with pytest.raises(HyperspaceError):
            reference_hyperspace(two_clause_block, {7: False})

    def test_invalid_shape(self):
        with pytest.raises(HyperspaceError):
            reference_hyperspace(np.zeros((2, 2, 10)))

    def test_reference_minterms_symbolic(self):
        assert reference_minterms(3) == MintermSet.full(3)
        bound = reference_minterms(3, {2: False})
        assert bound.count() == 4
        assert all((index >> 1) & 1 == 0 for index in bound.indices())
