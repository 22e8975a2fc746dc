"""Tests for the RTW realization: the sampled engine with telegraph-wave carriers."""

from __future__ import annotations

import pytest

from repro.cnf.paper_instances import (
    example6_instance,
    section4_sat_instance,
    section4_unsat_instance,
)
from repro.core.assignment import find_satisfying_assignment
from repro.core.config import NBLConfig
from repro.core.sampled import SampledNBLEngine
from repro.exceptions import EngineError
from repro.noise.telegraph import BipolarCarrier, TelegraphCarrier
from repro.rtw.engine import instantaneous_margin


def rtw_engine(formula, carrier=None, seed=0, max_samples=100_000):
    """RTW carriers with adaptive stopping in blocks of 10k samples."""
    config = NBLConfig(
        carrier=carrier if carrier is not None else BipolarCarrier(),
        max_samples=max_samples,
        block_size=10_000,
        seed=seed,
    )
    return SampledNBLEngine(formula, config)


class TestRTWEngine:
    def test_decisions_on_paper_instances(self):
        assert rtw_engine(section4_sat_instance(), seed=1).check().satisfiable
        assert not rtw_engine(section4_unsat_instance(), seed=1).check().satisfiable

    def test_unit_power_signal(self):
        engine = rtw_engine(example6_instance())
        assert engine.minterm_signal == pytest.approx(1.0)
        assert engine.decision_threshold == pytest.approx(0.5)

    def test_slow_switching_variant(self):
        engine = rtw_engine(
            section4_sat_instance(),
            TelegraphCarrier(switch_probability=0.2),
            seed=2,
            max_samples=150_000,
        )
        assert engine.check().satisfiable

    def test_algorithm2_on_rtw(self):
        engine = rtw_engine(section4_sat_instance(), seed=3)
        result = find_satisfying_assignment(engine)
        assert result.satisfiable and result.verified


class TestInstantaneousMargin:
    def test_sat_exceeds_unsat(self):
        sat_rate = instantaneous_margin(
            section4_sat_instance(), num_observations=24, block_size=2_000, seed=1
        )
        unsat_rate = instantaneous_margin(
            section4_unsat_instance(), num_observations=24, block_size=2_000, seed=1
        )
        assert 0.0 <= unsat_rate <= 1.0
        assert sat_rate > unsat_rate

    def test_invalid_parameters(self):
        with pytest.raises(EngineError):
            instantaneous_margin(example6_instance(), num_observations=0)
