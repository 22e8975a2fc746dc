"""Tests for the Monte-Carlo (sampled) NBL-SAT engine.

These are the core reproduction tests: the sampled mean of
``S_N = τ_N · Σ_N`` must converge to the exact value predicted by the
symbolic engine, and Algorithm 1's decisions must be correct on the paper's
instances with realistic sample budgets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.paper_instances import example6_instance
from repro.core.config import NBLConfig
from repro.core.sampled import SampledNBLEngine
from repro.core.symbolic import SymbolicNBLEngine
from repro.exceptions import EngineError
from repro.noise.telegraph import BipolarCarrier
from repro.noise.uniform import UniformCarrier
from repro.sbl import SBLNBLEngine


class TestConstruction:
    def test_rejects_empty_formula(self):
        with pytest.raises(EngineError):
            SampledNBLEngine(CNFFormula([]))
        with pytest.raises(EngineError):
            SampledNBLEngine(CNFFormula([], num_variables=2))

    def test_minterm_signal_and_threshold(self, sat_instance):
        engine = SampledNBLEngine(sat_instance, NBLConfig(carrier=UniformCarrier()))
        assert engine.minterm_signal == pytest.approx((1.0 / 12.0) ** 8)
        assert engine.decision_threshold == pytest.approx(0.5 * (1.0 / 12.0) ** 8)

    def test_invalid_binding(self, sat_instance, fast_bipolar_config):
        engine = SampledNBLEngine(sat_instance, fast_bipolar_config)
        with pytest.raises(EngineError):
            engine.check({9: True})


def chain_formula(n: int = 20) -> CNFFormula:
    """A satisfiable n-variable, n-clause chain (n·m = 400 for n = 20)."""
    return CNFFormula.from_ints([[i, i % n + 1] for i in range(1, n + 1)], n)


class TestSignalUnderflow:
    """``(1/12)^(n·m)`` below float64's smallest normal must not read UNSAT."""

    def test_uniform_carrier_underflow_is_refused(self):
        with pytest.raises(EngineError, match="normalized=True"):
            SampledNBLEngine(chain_formula(), NBLConfig(carrier=UniformCarrier()))

    def test_unit_power_carriers_are_accepted(self):
        for carrier in (UniformCarrier(normalized=True), BipolarCarrier()):
            engine = SampledNBLEngine(chain_formula(), NBLConfig(carrier=carrier))
            assert engine.minterm_signal == pytest.approx(1.0)

    def test_largest_representable_uniform_instance_is_accepted(self):
        # n·m = 284: (1/12)^284 ≈ 3e-307 is still a normal double.
        formula = CNFFormula.from_ints([[1, 2]] * 142, 2)
        assert SampledNBLEngine(formula).minterm_signal >= np.finfo(float).tiny
        with pytest.raises(EngineError):
            SampledNBLEngine(CNFFormula.from_ints([[1, 2]] * 143, 2))

    def test_rtw_and_sbl_engines_refuse_underflow(self):
        with pytest.raises(EngineError):
            SampledNBLEngine(chain_formula(), NBLConfig(carrier=BipolarCarrier(amplitude=0.1)))
        with pytest.raises(EngineError):
            SBLNBLEngine(chain_formula(40))  # (1/2)^1600


class TestDecisions:
    def test_paper_instances_uniform_carrier(
        self, sat_instance, unsat_instance, fast_uniform_config
    ):
        sat_result = SampledNBLEngine(sat_instance, fast_uniform_config).check()
        unsat_result = SampledNBLEngine(unsat_instance, fast_uniform_config).check()
        assert sat_result.satisfiable
        assert not unsat_result.satisfiable

    def test_paper_instances_bipolar_carrier(
        self, sat_instance, unsat_instance, fast_bipolar_config
    ):
        assert SampledNBLEngine(sat_instance, fast_bipolar_config).check().satisfiable
        assert not SampledNBLEngine(unsat_instance, fast_bipolar_config).check().satisfiable

    def test_example7_minimal_unsat(self, example7, fast_bipolar_config):
        assert not SampledNBLEngine(example7, fast_bipolar_config).check().satisfiable

    def test_binding_reduces_to_unsat_subspace(self, sat_instance, fast_bipolar_config):
        # The only model of the Section IV SAT instance is ~x1 x2, so binding
        # x1 = 1 must make the reduced instance unsatisfiable.
        engine = SampledNBLEngine(sat_instance, fast_bipolar_config)
        assert engine.check({1: False}).satisfiable
        assert not engine.check({1: True}).satisfiable


class TestMeanConvergence:
    def test_sat_mean_matches_symbolic_prediction(self, example6):
        config = NBLConfig(
            carrier=BipolarCarrier(),
            max_samples=200_000,
            block_size=50_000,
            convergence="fixed",
            seed=3,
        )
        sampled = SampledNBLEngine(example6, config).check()
        exact = SymbolicNBLEngine(example6, BipolarCarrier()).expected_mean()
        assert exact == pytest.approx(2.0)
        assert sampled.mean == pytest.approx(exact, abs=4.0 * sampled.std_error)

    def test_uniform_mean_matches_scaled_prediction(self, sat_instance):
        config = NBLConfig(
            carrier=UniformCarrier(),
            max_samples=300_000,
            block_size=50_000,
            convergence="fixed",
            seed=5,
        )
        sampled = SampledNBLEngine(sat_instance, config).check()
        exact = (1.0 / 12.0) ** 8
        assert sampled.mean == pytest.approx(exact, abs=4.0 * sampled.std_error)

    def test_std_error_shrinks_with_samples(self, example6):
        small = NBLConfig(
            carrier=BipolarCarrier(), max_samples=20_000, convergence="fixed", seed=7
        )
        large = NBLConfig(
            carrier=BipolarCarrier(), max_samples=160_000, convergence="fixed", seed=7
        )
        se_small = SampledNBLEngine(example6, small).check().std_error
        se_large = SampledNBLEngine(example6, large).check().std_error
        assert se_large < se_small


class TestEngineMechanics:
    def test_fixed_budget_uses_exact_sample_count(self, example6):
        config = NBLConfig(
            carrier=BipolarCarrier(), max_samples=35_000, block_size=10_000,
            convergence="fixed", seed=1,
        )
        result = SampledNBLEngine(example6, config).check()
        assert result.samples_used == 35_000
        assert result.converged

    def test_adaptive_can_stop_early(self, example6):
        config = NBLConfig(
            carrier=BipolarCarrier(),
            max_samples=400_000,
            block_size=20_000,
            min_samples=20_000,
            convergence="adaptive",
            seed=2,
        )
        result = SampledNBLEngine(example6, config).check()
        assert result.samples_used < 400_000
        assert result.converged

    def test_trace_recording(self, example6):
        config = NBLConfig(
            carrier=BipolarCarrier(), max_samples=30_000, block_size=10_000,
            convergence="fixed", record_trace=True, seed=1,
        )
        result = SampledNBLEngine(example6, config).check()
        assert result.trace_samples == [10_000, 20_000, 30_000]
        assert len(result.trace_means) == 3
        assert result.trace_means[-1] == pytest.approx(result.mean)

    def test_no_trace_by_default(self, example6, fast_bipolar_config):
        result = SampledNBLEngine(example6, fast_bipolar_config).check()
        assert result.trace_samples == []

    def test_reproducible_with_seed(self, example6):
        config = NBLConfig(
            carrier=BipolarCarrier(), max_samples=20_000, convergence="fixed", seed=9
        )
        a = SampledNBLEngine(example6, config).check()
        b = SampledNBLEngine(example6, config).check()
        assert a.mean == pytest.approx(b.mean)

    def test_sn_block_shape(self, example6, fast_bipolar_config):
        engine = SampledNBLEngine(example6, fast_bipolar_config)
        samples = engine.sn_block(block_size=500)
        assert samples.shape == (500,)

    def test_result_metadata(self, example6, fast_bipolar_config):
        result = SampledNBLEngine(example6, fast_bipolar_config).check({1: True})
        assert result.engine == "sampled"
        assert result.bindings == {1: True}
        assert result.samples_used > 0


class TestCrossEngineAgreement:
    """The sampled engine must agree with the exact engine on small instances.

    The instances are kept at n·m = 12 with unit-power carriers so the
    decision margin is several standard errors wide at the test budget; the
    paper instances (including UNSAT ones) are covered by TestDecisions.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_random_small_instances(self, seed):
        from repro.cnf.generators import random_ksat

        formula = random_ksat(3, 4, 2, seed=seed)
        exact = SymbolicNBLEngine(formula, BipolarCarrier())
        config = NBLConfig(
            carrier=BipolarCarrier(),
            max_samples=240_000,
            block_size=40_000,
            min_samples=40_000,
            seed=seed + 100,
        )
        sampled = SampledNBLEngine(formula, config).check()
        assert sampled.satisfiable == exact.check().satisfiable
        # The estimate must also be statistically consistent with the exact
        # model count (mean = K for unit-power carriers).
        assert sampled.mean == pytest.approx(
            exact.expected_mean(), abs=6.0 * max(sampled.std_error, 1e-12)
        )
