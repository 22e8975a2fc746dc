"""Compile a CNF instance into the NBL-SAT analog block diagram.

The generated netlist follows the paper's Section V sketch literally:

* one noise source per literal per clause (2·m·n wideband-amplifier noise
  generators),
* per clause and variable an analog adder forming ``N^j_{x_i} + N^j_{~x_i}``,
* per clause a multiplier chain forming the full superposition ``T^j``, a
  multiplier chain forming the falsifying cube (every literal of the clause
  false), and a subtracting adder forming ``Z_j = T^j − T^j_falsified`` (see
  :mod:`repro.core.sigma` for why this, rather than summing the per-literal
  cubes, keeps every satisfying minterm with coefficient one),
* a multiplier forming ``Σ_N`` from the ``Z_j``,
* per variable multiplier chains forming the all-clause literal products of
  ``τ_N`` (Equation 2), with bound variables wired straight through,
* a final multiplier for ``S_N = τ_N · Σ_N`` feeding a correlator (and an
  optional low-pass filter probe).

:class:`AnalogNBLEngine` streams the compiled netlist through the same
observe-and-decide loop as the other sampled engines, so it can drive
Algorithm 2 and the cross-validation experiments unchanged.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from repro.analog.blocks import (
    AdderBlock,
    ConstantBlock,
    CorrelatorBlock,
    GainBlock,
    LowPassFilterBlock,
    MultiplierBlock,
    NoiseSourceBlock,
)
from repro.analog.engine import AnalogSimulator
from repro.analog.netlist import Netlist
from repro.cnf.formula import CNFFormula
from repro.core.sampled import SampledRealization
from repro.core.sigma import falsifying_cube_bindings
from repro.exceptions import EngineError
from repro.noise.base import Carrier
from repro.noise.uniform import UniformCarrier
from repro.utils.rng import SeedLike, spawn_generators
from repro.utils.stats import RunningStats

#: Wire carrying the final running mean of S_N.
OUTPUT_WIRE = "s_n_mean"
#: Wire carrying the instantaneous S_N product.
SN_WIRE = "s_n"
#: Wire carrying the optional low-pass-filtered S_N.
FILTERED_WIRE = "s_n_filtered"


def _literal_wire(clause: int, variable: int, positive: bool) -> str:
    polarity = "p" if positive else "n"
    return f"noise_c{clause}_x{variable}_{polarity}"


def compile_nbl_sat_netlist(
    formula: CNFFormula,
    carrier: Optional[Carrier] = None,
    seed: SeedLike = None,
    bindings: Optional[Mapping[int, bool]] = None,
    include_lowpass: bool = False,
    lowpass_alpha: float = 0.01,
) -> Netlist:
    """Build the NBL-SAT analog netlist for ``formula``.

    Parameters
    ----------
    formula:
        The CNF instance.
    carrier:
        Noise statistics of every source (defaults to uniform [-0.5, 0.5]).
    seed:
        Seed from which every noise source's independent stream is spawned.
    bindings:
        Variable bindings of ``τ_N`` (Algorithm 2's reduced hyperspace).
    include_lowpass:
        Also instantiate a single-pole low-pass filter probe on ``S_N``
        (slower to simulate; the correlator is always present).
    lowpass_alpha:
        Filter coefficient when ``include_lowpass`` is set.
    """
    if formula.num_variables == 0 or formula.num_clauses == 0:
        raise EngineError("the analog compiler requires at least one variable and clause")
    carrier = carrier if carrier is not None else UniformCarrier()
    bindings = dict(bindings or {})
    for variable in bindings:
        if not 1 <= variable <= formula.num_variables:
            raise EngineError(
                f"bound variable x{variable} out of range 1..{formula.num_variables}"
            )

    m, n = formula.num_clauses, formula.num_variables
    netlist = Netlist()
    generators = spawn_generators(seed, 2 * m * n)
    generator_index = 0

    # 1. Noise sources and per-(clause, variable) pair adders.
    for clause in range(1, m + 1):
        for variable in range(1, n + 1):
            for positive in (True, False):
                wire = _literal_wire(clause, variable, positive)
                netlist.add(
                    NoiseSourceBlock(
                        name=f"src_{wire}",
                        output=wire,
                        carrier=carrier,
                        seed=generators[generator_index],
                    )
                )
                generator_index += 1
            netlist.add(
                AdderBlock(
                    name=f"pair_c{clause}_x{variable}",
                    inputs=[
                        _literal_wire(clause, variable, True),
                        _literal_wire(clause, variable, False),
                    ],
                    output=f"pair_c{clause}_x{variable}",
                )
            )

    # 2. Per-clause satisfying superpositions Z_j = T^j - T^j_falsified.
    clause_wires: list[str] = []
    for clause_index, clause in enumerate(formula, start=1):
        z_wire = f"Z_c{clause_index}"
        if not clause:
            # Empty clause: its superposition is identically zero.
            netlist.add(ConstantBlock(name=f"const_{z_wire}", output=z_wire, value=0.0))
            clause_wires.append(z_wire)
            continue

        full_wire = f"T_full_c{clause_index}"
        netlist.add(
            MultiplierBlock(
                name=f"mult_{full_wire}",
                inputs=[f"pair_c{clause_index}_x{v}" for v in range(1, n + 1)],
                output=full_wire,
            )
        )
        falsifying = falsifying_cube_bindings(clause)
        if falsifying is None:
            # Tautological clause: every minterm satisfies it, Z_j = T^j.
            netlist.add(
                GainBlock(
                    name=f"gain_{z_wire}", inputs=[full_wire], output=z_wire, gain=1.0
                )
            )
            clause_wires.append(z_wire)
            continue

        falsified_wire = f"T_falsified_c{clause_index}"
        falsified_inputs = []
        for variable in range(1, n + 1):
            if variable in falsifying:
                falsified_inputs.append(
                    _literal_wire(clause_index, variable, falsifying[variable])
                )
            else:
                falsified_inputs.append(f"pair_c{clause_index}_x{variable}")
        netlist.add(
            MultiplierBlock(
                name=f"mult_{falsified_wire}",
                inputs=falsified_inputs,
                output=falsified_wire,
            )
        )
        negated_wire = f"neg_{falsified_wire}"
        netlist.add(
            GainBlock(
                name=f"gain_{negated_wire}",
                inputs=[falsified_wire],
                output=negated_wire,
                gain=-1.0,
            )
        )
        netlist.add(
            AdderBlock(
                name=f"adder_{z_wire}", inputs=[full_wire, negated_wire], output=z_wire
            )
        )
        clause_wires.append(z_wire)

    netlist.add(MultiplierBlock(name="mult_sigma", inputs=clause_wires, output="sigma"))

    # 3. τ_N: all-clause literal products per variable, with optional binding.
    tau_factor_wires: list[str] = []
    for variable in range(1, n + 1):
        positive_inputs = [_literal_wire(c, variable, True) for c in range(1, m + 1)]
        negative_inputs = [_literal_wire(c, variable, False) for c in range(1, m + 1)]
        positive_wire = f"tau_pos_x{variable}"
        negative_wire = f"tau_neg_x{variable}"
        netlist.add(
            MultiplierBlock(
                name=f"mult_{positive_wire}", inputs=positive_inputs, output=positive_wire
            )
        )
        netlist.add(
            MultiplierBlock(
                name=f"mult_{negative_wire}", inputs=negative_inputs, output=negative_wire
            )
        )
        factor_wire = f"tau_factor_x{variable}"
        if variable in bindings:
            chosen = positive_wire if bindings[variable] else negative_wire
            netlist.add(
                GainBlock(
                    name=f"bind_x{variable}", inputs=[chosen], output=factor_wire, gain=1.0
                )
            )
        else:
            netlist.add(
                AdderBlock(
                    name=f"adder_{factor_wire}",
                    inputs=[positive_wire, negative_wire],
                    output=factor_wire,
                )
            )
        tau_factor_wires.append(factor_wire)

    netlist.add(MultiplierBlock(name="mult_tau", inputs=tau_factor_wires, output="tau"))

    # 4. S_N product, correlator and optional low-pass probe.
    netlist.add(MultiplierBlock(name="mult_s_n", inputs=["tau", "sigma"], output=SN_WIRE))
    netlist.add(CorrelatorBlock(name="correlator", inputs=[SN_WIRE], output=OUTPUT_WIRE))
    if include_lowpass:
        netlist.add(
            LowPassFilterBlock(
                name="lpf_s_n",
                inputs=[SN_WIRE],
                output=FILTERED_WIRE,
                alpha=lowpass_alpha,
            )
        )
    return netlist


class AnalogNBLEngine(SampledRealization):
    """NBL-SAT engine backed by the compiled analog block diagram.

    The engine runs the shared :class:`~repro.core.sampled.SampledRealization`
    loop, so Algorithm 2 and every experiment driver can run on top of the
    hardware model unchanged. Each check compiles a fresh netlist (bindings
    change the τ_N wiring, exactly as a field-programmable NBL engine would
    be reconfigured) and streams its ``S_N`` wire. The correlator block is
    the hardware observable: its mean and integrated sample count are what a
    check reports. The standard error of the ``S_N`` samples lets the
    observation window stop adaptively, once the mean is 3σ away from the
    threshold after at least one block.
    """

    name = "analog"

    def __init__(
        self,
        formula: CNFFormula,
        carrier: Optional[Carrier] = None,
        seed: SeedLike = 0,
        max_samples: int = 100_000,
        block_size: int = 10_000,
        decision_fraction: float = 0.5,
        include_lowpass: bool = False,
    ) -> None:
        carrier = carrier if carrier is not None else UniformCarrier()
        super().__init__(
            formula,
            carrier.power,
            carrier.describe(),
            max_samples=max_samples,
            block_size=block_size,
            decision_fraction=decision_fraction,
            stop_z=3.0,
            min_samples=min(block_size, max_samples),
        )
        self._carrier = carrier
        self._seed = seed
        self._include_lowpass = include_lowpass
        self._check_counter = 0
        self._correlator: Optional[CorrelatorBlock] = None

    def component_counts(self) -> dict[str, int]:
        """Bill of materials of the compiled engine (no bindings)."""
        netlist = compile_nbl_sat_netlist(
            self.formula, self._carrier, self._seed, include_lowpass=self._include_lowpass
        )
        return netlist.component_counts()

    def _open(self, bindings: dict[int, bool]) -> Callable[[int], np.ndarray]:
        self._check_counter += 1
        netlist = compile_nbl_sat_netlist(
            self.formula,
            carrier=self._carrier,
            # A fresh, deterministic seed per check keeps repeated checks
            # independent while the whole engine stays reproducible.
            seed=(None if self._seed is None else (hash((self._seed, self._check_counter)) & 0x7FFFFFFF)),
            bindings=bindings,
            include_lowpass=self._include_lowpass,
        )
        simulator = AnalogSimulator(netlist)
        self._correlator = netlist.block("correlator")
        return lambda size: simulator.run_block(size, probes=[SN_WIRE])[SN_WIRE]

    def _observed(self, stats: RunningStats) -> tuple[float, int]:
        return self._correlator.mean, self._correlator.samples_integrated

    def __repr__(self) -> str:
        return (
            f"AnalogNBLEngine(n={self.formula.num_variables}, "
            f"m={self.formula.num_clauses}, carrier={self._carrier.name})"
        )
