"""Tests for the carrier families in repro.noise."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NoiseConfigError
from repro.noise.base import Carrier, available_carriers, carrier_from_name
from repro.noise.gaussian import GaussianCarrier
from repro.noise.telegraph import BipolarCarrier, TelegraphCarrier
from repro.noise.uniform import UniformCarrier

ALL_CARRIERS = [
    UniformCarrier(),
    UniformCarrier(normalized=True),
    GaussianCarrier(),
    GaussianCarrier(std=2.0),
    BipolarCarrier(),
    BipolarCarrier(amplitude=0.5),
    TelegraphCarrier(switch_probability=0.2),
]


class TestRegistry:
    def test_all_families_registered(self):
        names = available_carriers()
        for expected in ("uniform", "gaussian", "bipolar", "telegraph"):
            assert expected in names

    def test_carrier_from_name(self):
        assert isinstance(carrier_from_name("uniform"), UniformCarrier)
        assert carrier_from_name("gaussian", std=3.0).std == 3.0

    def test_unknown_name_raises(self):
        with pytest.raises(NoiseConfigError):
            carrier_from_name("does-not-exist")


class TestStatisticalProperties:
    @pytest.mark.parametrize("carrier", ALL_CARRIERS, ids=lambda c: repr(c))
    def test_zero_mean(self, carrier, rng):
        samples = carrier.sample(rng, (50_000,))
        tolerance = 4.0 * np.sqrt(carrier.power / samples.size)
        assert abs(samples.mean()) < tolerance

    @pytest.mark.parametrize("carrier", ALL_CARRIERS, ids=lambda c: repr(c))
    def test_power_matches_declaration(self, carrier, rng):
        samples = carrier.sample(rng, (60_000,))
        measured = float(np.mean(samples**2))
        assert measured == pytest.approx(carrier.power, rel=0.05)

    @pytest.mark.parametrize("carrier", ALL_CARRIERS, ids=lambda c: repr(c))
    def test_fourth_moment_matches_declaration(self, carrier, rng):
        samples = carrier.sample(rng, (120_000,))
        measured = float(np.mean(samples**4))
        assert measured == pytest.approx(carrier.fourth_moment, rel=0.1)

    @pytest.mark.parametrize("carrier", ALL_CARRIERS, ids=lambda c: repr(c))
    def test_shape_respected(self, carrier, rng):
        assert carrier.sample(rng, (3, 4, 5)).shape == (3, 4, 5)


class TestUniformCarrier:
    def test_paper_default_power_is_one_twelfth(self):
        assert UniformCarrier().power == pytest.approx(1.0 / 12.0)

    def test_normalized_has_unit_power(self):
        assert UniformCarrier(normalized=True).power == pytest.approx(1.0)

    def test_samples_within_interval(self, rng):
        carrier = UniformCarrier(half_width=0.5)
        samples = carrier.sample(rng, (10_000,))
        assert samples.min() >= -0.5 and samples.max() <= 0.5

    def test_invalid_half_width(self):
        with pytest.raises(NoiseConfigError):
            UniformCarrier(half_width=0.0)


class TestBipolarAndTelegraph:
    def test_bipolar_values(self, rng):
        samples = BipolarCarrier(amplitude=2.0).sample(rng, (1_000,))
        assert set(np.unique(samples)) <= {-2.0, 2.0}

    def test_bipolar_square_is_constant(self, rng):
        samples = BipolarCarrier().sample(rng, (1_000,))
        assert np.allclose(samples**2, 1.0)

    def test_telegraph_values(self, rng):
        samples = TelegraphCarrier(switch_probability=0.3).sample(rng, (4, 500))
        assert set(np.unique(samples)) <= {-1.0, 1.0}

    def test_telegraph_temporal_correlation(self, rng):
        # With low switch probability, adjacent samples agree most of the time.
        samples = TelegraphCarrier(switch_probability=0.05).sample(rng, (1, 20_000))[0]
        agreement = np.mean(samples[1:] == samples[:-1])
        assert agreement > 0.9

    def test_telegraph_p_half_is_iid(self, rng):
        samples = TelegraphCarrier(switch_probability=0.5).sample(rng, (1, 50_000))[0]
        agreement = np.mean(samples[1:] == samples[:-1])
        assert agreement == pytest.approx(0.5, abs=0.02)

    def test_telegraph_sources_independent(self, rng):
        samples = TelegraphCarrier(switch_probability=0.1).sample(rng, (2, 50_000))
        correlation = np.mean(samples[0] * samples[1])
        assert abs(correlation) < 0.05

    def test_invalid_parameters(self):
        with pytest.raises(NoiseConfigError):
            BipolarCarrier(amplitude=0.0)
        with pytest.raises(NoiseConfigError):
            TelegraphCarrier(switch_probability=0.0)
        with pytest.raises(NoiseConfigError):
            TelegraphCarrier(switch_probability=1.5)


class TestEqualityAndDescription:
    def test_equality(self):
        assert UniformCarrier() == UniformCarrier()
        assert UniformCarrier() != UniformCarrier(half_width=1.0)
        assert GaussianCarrier() != BipolarCarrier()

    def test_describe_mentions_power(self):
        assert "power" in UniformCarrier().describe()


class TestInPlaceFill:
    """``Carrier.fill`` draws into a caller's buffer without moving the streams."""

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 2, 1_001), (70_000,)])
    @pytest.mark.parametrize("half_width", [0.5, 0.37, float(np.sqrt(3.0))])
    def test_uniform_fill_is_bit_identical_to_rng_uniform(self, shape, half_width):
        expected = np.random.default_rng(5).uniform(-half_width, half_width, size=shape)
        out = np.empty(shape)
        result = UniformCarrier(half_width=half_width).fill(np.random.default_rng(5), out)
        assert result is out
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("shape", [(7,), (2, 3, 2, 1_001), (70_000,)])
    @pytest.mark.parametrize("std", [1.0, 0.3])
    def test_gaussian_fill_matches_rng_normal(self, shape, std):
        expected = np.random.default_rng(6).normal(0.0, std, size=shape)
        out = GaussianCarrier(std=std).fill(np.random.default_rng(6), np.empty(shape))
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("carrier", ALL_CARRIERS, ids=repr)
    def test_sample_and_fill_draw_the_same_stream(self, carrier):
        shape = (3, 2, 4_099)
        sampled = carrier.sample(np.random.default_rng(7), shape)
        filled = carrier.fill(np.random.default_rng(7), np.empty(shape))
        assert np.array_equal(sampled, filled)

    @pytest.mark.parametrize("amplitude", [1.0, 0.5, 3.0])
    def test_bipolar_values_are_exactly_plus_minus_amplitude(self, amplitude):
        out = BipolarCarrier(amplitude).fill(np.random.default_rng(8), np.empty((5, 20_003)))
        assert set(np.unique(out).tolist()) == {-amplitude, amplitude}

    @pytest.mark.parametrize("size", [1_000_000, 1_000_003, 999_997])
    def test_bipolar_coin_is_fair(self, size):
        """The share of +a is within 4σ of 1/2, sizes not a multiple of 8 too."""
        out = BipolarCarrier().fill(np.random.default_rng(size), np.empty(size))
        share = np.count_nonzero(out > 0) / size
        assert abs(share - 0.5) <= 4 * 0.5 / np.sqrt(size)

    def test_bipolar_consecutive_values_are_uncorrelated(self):
        out = BipolarCarrier().fill(np.random.default_rng(9), np.empty(400_000))
        for lag in (1, 7, 8, 9, 64):
            assert abs(np.mean(out[lag:] * out[:-lag])) < 4 / np.sqrt(out.size)

    def test_fill_rejects_non_contiguous_or_wrong_dtype(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NoiseConfigError):
            UniformCarrier().fill(rng, np.empty((4, 6))[:, ::2])
        with pytest.raises(NoiseConfigError):
            BipolarCarrier().fill(rng, np.empty(8, dtype=np.float32))

    def test_default_fill_copies_a_sample(self):
        out = np.empty((2, 300))
        TelegraphCarrier(switch_probability=0.2).fill(np.random.default_rng(1), out)
        assert set(np.unique(out).tolist()) <= {-1.0, 1.0}

    def test_a_carrier_must_implement_sample_or_fill(self):
        with pytest.raises(TypeError):
            type("Hollow", (Carrier,), {"power": property(lambda self: 1.0)})
