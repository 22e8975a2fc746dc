"""Tests for repro.noise.bank and repro.noise.correlation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NoiseConfigError
from repro.noise.bank import NEGATIVE, POSITIVE, NoiseBank, SourceIndex
from repro.noise.correlation import (
    correlation,
    correlation_matrix,
    max_off_diagonal_correlation,
    normalized_correlation,
)
from repro.noise.telegraph import BipolarCarrier
from repro.noise.uniform import UniformCarrier


class TestSourceIndex:
    def test_array_index(self):
        assert SourceIndex(2, 3, True).array_index() == (1, 2, POSITIVE)
        assert SourceIndex(1, 1, False).array_index() == (0, 0, NEGATIVE)

    def test_str(self):
        assert str(SourceIndex(1, 2, True)) == "N^1_x2"
        assert str(SourceIndex(3, 1, False)) == "N^3_~x1"


class TestNoiseBank:
    def test_block_shape(self):
        bank = NoiseBank(num_clauses=3, num_variables=2, seed=0)
        block = bank.sample_block(100)
        assert block.shape == (3, 2, 2, 100)

    def test_num_sources(self):
        assert NoiseBank(4, 5).num_sources == 40

    def test_samples_drawn_accumulates(self):
        bank = NoiseBank(1, 1, seed=0)
        bank.sample_block(10)
        bank.sample_block(5)
        assert bank.samples_drawn == 15

    def test_reproducible_with_seed(self):
        a = NoiseBank(2, 2, seed=3).sample_block(50)
        b = NoiseBank(2, 2, seed=3).sample_block(50)
        assert np.allclose(a, b)

    def test_consecutive_blocks_differ(self):
        bank = NoiseBank(2, 2, seed=3)
        assert not np.allclose(bank.sample_block(50), bank.sample_block(50))

    def test_default_carrier_is_paper_uniform(self):
        bank = NoiseBank(1, 1)
        assert isinstance(bank.carrier, UniformCarrier)
        assert bank.carrier.power == pytest.approx(1.0 / 12.0)

    def test_source_extraction(self):
        bank = NoiseBank(2, 3, seed=0)
        block = bank.sample_block(20)
        source = bank.source(SourceIndex(2, 3, False), block)
        assert np.array_equal(source, block[1, 2, NEGATIVE])

    def test_source_index_validation(self):
        bank = NoiseBank(2, 2, seed=0)
        block = bank.sample_block(5)
        with pytest.raises(NoiseConfigError):
            bank.source(SourceIndex(3, 1, True), block)
        with pytest.raises(NoiseConfigError):
            bank.source(SourceIndex(1, 5, True), block)

    def test_all_indices_cover_every_source(self):
        bank = NoiseBank(2, 3)
        indices = bank.all_indices()
        assert len(indices) == bank.num_sources
        assert len(set(indices)) == bank.num_sources

    def test_invalid_construction(self):
        with pytest.raises((ValueError, TypeError)):
            NoiseBank(0, 2)
        with pytest.raises(NoiseConfigError):
            NoiseBank(1, 1, carrier="uniform")

    def test_invalid_block_size(self):
        with pytest.raises((ValueError, TypeError)):
            NoiseBank(1, 1).sample_block(0)

    def test_pairwise_orthogonality_of_sources(self):
        """Definition 7/8: distinct basis sources are (empirically) uncorrelated."""
        bank = NoiseBank(2, 2, carrier=BipolarCarrier(), seed=1)
        block = bank.sample_block(60_000)
        flat = block.reshape(bank.num_sources, -1)
        assert max_off_diagonal_correlation(flat) < 0.03


    def test_sample_block_fills_a_caller_buffer(self):
        bank = NoiseBank(2, 3, seed=4)
        out = np.empty((2, 3, 2, 50))
        assert bank.sample_block(50, out=out) is out
        assert np.array_equal(out, NoiseBank(2, 3, seed=4).sample_block(50))
        assert bank.samples_drawn == 50

    def test_sample_block_rejects_a_mismatched_buffer(self):
        bank = NoiseBank(2, 3, seed=4)
        for bad in (np.empty((2, 3, 2, 49)), np.empty((2, 3, 2, 50), dtype=np.float32),
                    np.empty((2, 3, 2, 100))[..., ::2]):
            with pytest.raises(NoiseConfigError):
                bank.sample_block(50, out=bad)

    @pytest.mark.parametrize("block_size", [60_000, 60_003])
    def test_bipolar_sources_are_pairwise_uncorrelated(self, block_size):
        """One-bit bipolar draws: every pair of the 2·m·n sources, across fill chunks."""
        bank = NoiseBank(3, 3, carrier=BipolarCarrier(), seed=2)
        block = bank.sample_block(block_size, out=np.empty((3, 3, 2, block_size)))
        flat = block.reshape(bank.num_sources, -1)
        assert max_off_diagonal_correlation(flat) < 0.03
        # Consecutive blocks of one source do not repeat each other.
        following = bank.sample_block(block_size).reshape(bank.num_sources, -1)
        assert np.max(np.abs(np.mean(flat * following, axis=1))) < 0.03


class TestCorrelationHelpers:
    def test_correlation_of_identical_signal_is_power(self, rng):
        x = rng.uniform(-0.5, 0.5, 10_000)
        assert correlation(x, x) == pytest.approx(np.mean(x**2))

    def test_correlation_shape_mismatch(self):
        with pytest.raises(ValueError):
            correlation(np.ones(3), np.ones(4))

    def test_correlation_empty(self):
        with pytest.raises(ValueError):
            correlation(np.array([]), np.array([]))

    def test_normalized_correlation_bounds(self, rng):
        x = rng.normal(size=5_000)
        assert normalized_correlation(x, x) == pytest.approx(1.0)
        assert abs(normalized_correlation(x, rng.normal(size=5_000))) < 0.1

    def test_normalized_correlation_zero_signal(self):
        assert normalized_correlation(np.zeros(10), np.zeros(10)) == 0.0

    def test_correlation_matrix_diagonal(self, rng):
        sources = rng.normal(size=(3, 20_000))
        matrix = correlation_matrix(sources)
        assert matrix.shape == (3, 3)
        for i in range(3):
            assert matrix[i, i] == pytest.approx(np.mean(sources[i] ** 2))

    def test_correlation_matrix_requires_2d(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.ones(5))

    def test_product_of_two_sources_orthogonal_to_each(self, rng):
        """The hyperspace property: Z_ij = V_i*V_j is orthogonal to V_k."""
        v = rng.uniform(-0.5, 0.5, (3, 200_000))
        product = v[0] * v[1]
        for k in range(3):
            assert abs(normalized_correlation(product, v[k])) < 0.02
