"""Tests for the CNF → analog netlist compiler and the AnalogNBLEngine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analog.compiler import (
    OUTPUT_WIRE,
    SN_WIRE,
    AnalogNBLEngine,
    compile_nbl_sat_netlist,
)
from repro.analog.engine import AnalogSimulator
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.cnf.paper_instances import (
    example6_instance,
    example7_instance,
    section4_sat_instance,
    section4_unsat_instance,
)
from repro.core.assignment import find_satisfying_assignment
from repro.exceptions import EngineError
from repro.noise.telegraph import BipolarCarrier


class TestCompiler:
    def test_bill_of_materials_scales_with_instance(self):
        netlist = compile_nbl_sat_netlist(section4_sat_instance(), seed=0)
        counts = netlist.component_counts()
        # 2·m·n = 16 noise sources for n=2, m=4.
        assert counts["NoiseSourceBlock"] == 16
        assert counts["CorrelatorBlock"] == 1
        assert counts["MultiplierBlock"] >= 4

    def test_netlist_is_acyclic_and_connected(self):
        netlist = compile_nbl_sat_netlist(example6_instance(), seed=1)
        order = netlist.topological_order()
        assert len(order) == len(netlist.blocks)

    def test_lowpass_probe_optional(self):
        with_filter = compile_nbl_sat_netlist(
            example6_instance(), seed=0, include_lowpass=True
        )
        without = compile_nbl_sat_netlist(example6_instance(), seed=0)
        assert "LowPassFilterBlock" in with_filter.component_counts()
        assert "LowPassFilterBlock" not in without.component_counts()

    def test_tautological_clause_handled(self):
        formula = CNFFormula.from_ints([[1, -1], [2]], num_variables=2)
        netlist = compile_nbl_sat_netlist(formula, seed=0)
        assert netlist.topological_order()

    def test_invalid_inputs(self):
        with pytest.raises(EngineError):
            compile_nbl_sat_netlist(CNFFormula([]), seed=0)
        with pytest.raises(EngineError):
            compile_nbl_sat_netlist(example6_instance(), seed=0, bindings={9: True})

    def test_correlator_matches_direct_product_probe(self):
        """The correlator output equals the running mean of the s_n wire."""
        netlist = compile_nbl_sat_netlist(
            example6_instance(), carrier=BipolarCarrier(), seed=3
        )
        simulator = AnalogSimulator(netlist)
        probes = simulator.run_block(20_000, probes=[SN_WIRE, OUTPUT_WIRE])
        assert probes[OUTPUT_WIRE][-1] == pytest.approx(np.mean(probes[SN_WIRE]))


class TestAnalogNBLEngine:
    def test_decisions_on_paper_instances(self):
        sat_engine = AnalogNBLEngine(
            section4_sat_instance(), carrier=BipolarCarrier(), seed=1, max_samples=120_000
        )
        unsat_engine = AnalogNBLEngine(
            section4_unsat_instance(), carrier=BipolarCarrier(), seed=1, max_samples=120_000
        )
        assert sat_engine.check().satisfiable
        assert not unsat_engine.check().satisfiable

    def test_minimal_unsat(self):
        engine = AnalogNBLEngine(
            example7_instance(), carrier=BipolarCarrier(), seed=2, max_samples=60_000
        )
        assert not engine.check().satisfiable

    def test_mean_consistent_with_model_count(self):
        engine = AnalogNBLEngine(
            example6_instance(), carrier=BipolarCarrier(), seed=4, max_samples=200_000,
            block_size=50_000,
        )
        result = engine.check()
        # Example 6 has two models; unit-power carriers make the mean ≈ 2.
        assert result.mean == pytest.approx(2.0, abs=1.0)

    def test_binding_support_and_algorithm2(self):
        engine = AnalogNBLEngine(
            section4_sat_instance(), carrier=BipolarCarrier(), seed=5, max_samples=120_000
        )
        assert not engine.check({1: True}).satisfiable
        result = find_satisfying_assignment(engine)
        assert result.satisfiable and result.verified
        assert result.assignment == {1: False, 2: True}

    def test_component_counts_exposed(self):
        engine = AnalogNBLEngine(example6_instance(), seed=0)
        assert engine.component_counts()["NoiseSourceBlock"] == 8

    def test_result_metadata(self):
        engine = AnalogNBLEngine(
            example6_instance(), carrier=BipolarCarrier(), seed=6, max_samples=30_000
        )
        result = engine.check()
        assert result.engine == "analog"
        assert result.samples_used <= 30_000

    def test_refuses_a_signal_that_underflows(self):
        # Satisfiable, but (1/12)^(15·20) underflows float64: every check
        # would read a mean and threshold of 0.0 and answer UNSAT.
        with pytest.raises(EngineError):
            AnalogNBLEngine(random_ksat(15, 20, seed=0)).check()

    def test_invalid_configuration(self):
        with pytest.raises(EngineError):
            AnalogNBLEngine(example6_instance(), max_samples=0)
        with pytest.raises(EngineError):
            AnalogNBLEngine(example6_instance(), decision_fraction=2.0)
