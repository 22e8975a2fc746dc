"""The contract every sampled realization keeps through the shared Algorithm-1 loop.

The sampled noise engine, the sinusoid (SBL) engine and the analog netlist
engine all observe ``S_N`` through :class:`repro.core.sampled.SampledRealization`,
so budgets, stopping, bindings and seeding behave the same on each.
"""

from __future__ import annotations

import pytest

from repro.analog.compiler import AnalogNBLEngine
from repro.cnf.paper_instances import section4_sat_instance, section4_unsat_instance
from repro.core.config import NBLConfig
from repro.core.sampled import SampledNBLEngine
from repro.exceptions import EngineError
from repro.noise.telegraph import BipolarCarrier
from repro.sbl.engine import SBLNBLEngine

BLOCK = 7_000


def _sampled(convergence):
    def make(formula, max_samples, seed):
        config = NBLConfig(
            carrier=BipolarCarrier(),
            max_samples=max_samples,
            block_size=BLOCK,
            min_samples=BLOCK,
            convergence=convergence,
            seed=seed,
        )
        return SampledNBLEngine(formula, config)

    return make


def _sbl(formula, max_samples, seed):
    return SBLNBLEngine(formula, max_samples=max_samples, block_size=BLOCK, seed=seed)


def _analog(formula, max_samples, seed):
    return AnalogNBLEngine(
        formula, carrier=BipolarCarrier(), seed=seed, max_samples=max_samples,
        block_size=BLOCK,
    )


#: Realizations whose policy is a fixed budget.
FIXED_BUDGET = {"sampled": _sampled("fixed"), "sbl": _sbl}
#: Realizations whose policy stops once the mean clears the threshold.
ADAPTIVE = {"sampled": _sampled("adaptive"), "analog": _analog}
REALIZATIONS = {"sampled": _sampled("adaptive"), "sbl": _sbl, "analog": _analog}

INSTANCES = {"sat": section4_sat_instance, "unsat": section4_unsat_instance}


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("realization", sorted(FIXED_BUDGET))
def test_fixed_budget_observes_every_sample(realization, instance):
    # 30k is not a multiple of the block, so the last block is cut short.
    result = FIXED_BUDGET[realization](INSTANCES[instance](), 30_000, 1).check()
    assert result.samples_used == 30_000
    assert result.converged


@pytest.mark.parametrize("realization", sorted(ADAPTIVE))
def test_adaptive_check_stops_before_its_budget(realization):
    result = ADAPTIVE[realization](section4_sat_instance(), 300_000, 1).check()
    assert result.satisfiable
    assert result.converged
    assert result.samples_used < 300_000


@pytest.mark.parametrize("offset", [0, 1], ids=["x0", "x(n+1)"])
@pytest.mark.parametrize("realization", sorted(REALIZATIONS))
def test_out_of_range_binding_is_an_engine_error(realization, offset):
    formula = section4_sat_instance()
    engine = REALIZATIONS[realization](formula, 20_000, 1)
    variable = 0 if offset == 0 else formula.num_variables + 1
    with pytest.raises(EngineError):
        engine.check({variable: True})


@pytest.mark.parametrize("realization", sorted(REALIZATIONS))
def test_same_seed_same_results(realization):
    make = REALIZATIONS[realization]
    first = make(section4_sat_instance(), 30_000, 4)
    second = make(section4_sat_instance(), 30_000, 4)
    assert first.check() == second.check()
    assert first.check({1: False}) == second.check({1: False})
