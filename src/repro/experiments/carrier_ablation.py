"""Table C1 — carrier-family and realization ablation (Section V)."""

from __future__ import annotations

from repro.analog.compiler import AnalogNBLEngine
from repro.cnf.paper_instances import section4_sat_instance, section4_unsat_instance
from repro.core.config import NBLConfig
from repro.core.sampled import SampledNBLEngine
from repro.core.symbolic import SymbolicNBLEngine
from repro.experiments.recording import ExperimentRecord
from repro.noise.gaussian import GaussianCarrier
from repro.noise.telegraph import BipolarCarrier, TelegraphCarrier
from repro.noise.uniform import UniformCarrier
from repro.sbl.engine import SBLNBLEngine
from repro.sbl.frequency_plan import FrequencyPlan
from repro.utils.rng import SeedLike


def _normalized_margin(sat_mean: float, unsat_mean: float, minterm_signal: float) -> float:
    """Separation of the SAT and UNSAT means in units of the one-minterm signal."""
    if minterm_signal == 0.0:
        return 0.0
    return (sat_mean - unsat_mean) / minterm_signal


def run_carrier_ablation(
    max_samples: int = 150_000,
    seed: SeedLike = 0,
) -> ExperimentRecord:
    """Check the Section IV instances under every realization in the library.

    For each realization the table reports the S_N mean on the SAT and UNSAT
    instances (normalised by the one-minterm signal level so the columns are
    comparable across carriers), the resulting decisions, and whether both
    are correct. Realizations covered:

    * sampled noise engine with uniform (paper), Gaussian, bipolar and
      slow-switching telegraph carriers;
    * the RTW engine: bipolar carriers with adaptive stopping;
    * the SBL engine with the dithered and the paper's equally spaced
      frequency plans;
    * the compiled analog netlist engine;
    * the symbolic engine (exact reference).
    """
    sat_formula = section4_sat_instance()
    unsat_formula = section4_unsat_instance()
    record = ExperimentRecord(
        experiment_id="table_c1",
        title="Table C1 — carrier-family / realization ablation on the Section IV instances",
        headers=[
            "realization",
            "SAT mean (minterm units)",
            "UNSAT mean (minterm units)",
            "margin",
            "SAT verdict",
            "UNSAT verdict",
            "both correct",
        ],
    )

    def add_engine_row(name: str, make_engine) -> None:
        sat_engine = make_engine(sat_formula)
        unsat_engine = make_engine(unsat_formula)
        sat_result = sat_engine.check()
        unsat_result = unsat_engine.check()
        signal = sat_result.expected_minterm_signal
        sat_units = sat_result.mean / signal if signal else 0.0
        unsat_units = unsat_result.mean / signal if signal else 0.0
        record.add_row(
            name,
            sat_units,
            unsat_units,
            _normalized_margin(sat_result.mean, unsat_result.mean, signal),
            "SAT" if sat_result.satisfiable else "UNSAT",
            "SAT" if unsat_result.satisfiable else "UNSAT",
            sat_result.satisfiable and not unsat_result.satisfiable,
        )

    def sampled_factory(carrier):
        def make(formula):
            config = NBLConfig(
                carrier=carrier,
                max_samples=max_samples,
                block_size=min(25_000, max_samples),
                convergence="fixed",
                seed=seed,
            )
            return SampledNBLEngine(formula, config)

        return make

    add_engine_row("symbolic (exact reference)", lambda f: SymbolicNBLEngine(f))
    add_engine_row("sampled / uniform [-0.5,0.5] (paper)", sampled_factory(UniformCarrier()))
    add_engine_row("sampled / gaussian", sampled_factory(GaussianCarrier()))
    add_engine_row("sampled / bipolar (+-1)", sampled_factory(BipolarCarrier()))
    add_engine_row(
        "sampled / telegraph (p_switch=0.1)",
        sampled_factory(TelegraphCarrier(switch_probability=0.1)),
    )
    add_engine_row(
        "rtw engine",
        lambda f: SampledNBLEngine(
            f,
            NBLConfig(
                carrier=BipolarCarrier(),
                max_samples=max_samples,
                block_size=10_000,
                seed=seed,
            ),
        ),
    )
    add_engine_row(
        "sbl / dithered plan",
        lambda f: SBLNBLEngine(f, max_samples=max_samples, seed=seed),
    )
    add_engine_row(
        "sbl / equally spaced plan (paper)",
        lambda f: SBLNBLEngine(
            f,
            plan=FrequencyPlan(
                num_sources=2 * f.num_clauses * f.num_variables, strategy="spaced"
            ),
            max_samples=max_samples,
            seed=seed,
        ),
    )
    add_engine_row(
        "analog netlist / bipolar",
        lambda f: AnalogNBLEngine(
            f, carrier=BipolarCarrier(), seed=seed, max_samples=max_samples
        ),
    )

    record.add_note(
        "Shape check: every realization should report a SAT mean near +1 minterm "
        "unit and an UNSAT mean near 0; unit-power carriers (bipolar/RTW) reach "
        "a usable margin with far fewer samples than the paper's uniform carrier."
    )
    record.add_note(
        "The equally spaced SBL plan is expected to misbehave: equal spacing "
        "makes intermodulation products of distinct minterms coincide, which "
        "is why the library defaults to the dithered plan."
    )
    return record
