"""Section V realizations: analog engine, carrier families, and the hybrid solver.

This example exercises the "realizing an NBL-based SAT engine" part of the
paper:

1. compiles the Section IV SAT instance into the analog block diagram and
   prints its bill of materials (noise sources, adders, multipliers,
   correlator) before running the check on the simulated hardware;
2. compares the carrier families (uniform noise, RTW/bipolar, sinusoids)
   on the same instance;
3. runs the hybrid CPU + NBL-coprocessor solver on a random 3-SAT instance
   and reports the coprocessor traffic.

Run with::

    python examples/hardware_realizations.py
"""

from __future__ import annotations

from repro.analog import AnalogNBLEngine
from repro.cnf import random_ksat, section4_sat_instance
from repro.core import NBLConfig, SampledNBLEngine
from repro.hybrid import HybridNBLSolver
from repro.noise import BipolarCarrier, TelegraphCarrier, UniformCarrier
from repro.sbl import SBLNBLEngine
from repro.solvers import DPLLSolver


def analog_demo() -> None:
    formula = section4_sat_instance()
    engine = AnalogNBLEngine(
        formula, carrier=BipolarCarrier(), seed=7, max_samples=120_000
    )
    print("Analog NBL-SAT engine for S_SAT — bill of materials:")
    for component, count in sorted(engine.component_counts().items()):
        print(f"  {component:<22} x {count}")
    result = engine.check()
    print(f"  correlator output: mean={result.mean:.3f} -> "
          f"{'SAT' if result.satisfiable else 'UNSAT'} "
          f"({result.samples_used} samples)\n")


def carrier_demo() -> None:
    formula = section4_sat_instance()
    print("Carrier families on S_SAT (mean in one-minterm units, exact value is 1):")
    realizations = [
        ("uniform [-0.5, 0.5] noise", SampledNBLEngine(
            formula, NBLConfig(carrier=UniformCarrier(), max_samples=300_000,
                               convergence="fixed", seed=3))),
        ("bipolar (+-1) noise", SampledNBLEngine(
            formula, NBLConfig(carrier=BipolarCarrier(), max_samples=100_000,
                               convergence="fixed", seed=3))),
        ("random telegraph wave", SampledNBLEngine(
            formula, NBLConfig(carrier=TelegraphCarrier(switch_probability=0.2),
                               max_samples=100_000, block_size=10_000, seed=3))),
        ("sinusoids (dithered plan)", SBLNBLEngine(formula, seed=3, max_samples=150_000)),
    ]
    for name, engine in realizations:
        result = engine.check()
        units = result.mean / result.expected_minterm_signal
        print(f"  {name:<28} mean={units:6.2f}  verdict="
              f"{'SAT' if result.satisfiable else 'UNSAT'}")
    print()


def hybrid_demo() -> None:
    formula = random_ksat(14, 59, 3, seed=5)
    plain = DPLLSolver().solve(formula)
    hybrid = HybridNBLSolver().solve(formula)
    print("Hybrid CPU + NBL-coprocessor solver on random 3-SAT (n=14, m=59):")
    print(f"  plain DPLL : {plain.status}, {plain.stats.decisions} decisions")
    print(f"  hybrid     : {hybrid.status}, {hybrid.stats.decisions} decisions, "
          f"{hybrid.stats.evaluations} coprocessor checks")


def main() -> None:
    analog_demo()
    carrier_demo()
    hybrid_demo()


if __name__ == "__main__":
    main()
