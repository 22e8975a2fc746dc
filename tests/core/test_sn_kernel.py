"""The tiled S_N kernel against the per-clause reference builders.

``SNKernel`` evaluates ``τ_N · Σ_N`` tile by tile in reused buffers. These
tests pin it to the readable construction of the paper: ``Σ_N`` as the
product over clauses of ``clause_full_superposition − clause_cube_subspace``
and ``τ_N`` from per-variable all-clause products.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cnf.formula import CNFFormula
from repro.core.config import NBLConfig
from repro.core.sampled import TILE_SAMPLES, SampledNBLEngine, SNKernel
from repro.core.sigma import SigmaPlan, falsifying_cube_bindings, sigma_samples
from repro.hyperspace.reference import reference_hyperspace
from repro.hyperspace.superposition import (
    clause_cube_subspace,
    clause_full_superposition,
)
from repro.noise.bank import NEGATIVE, POSITIVE, NoiseBank
from repro.noise.gaussian import GaussianCarrier
from repro.noise.telegraph import BipolarCarrier
from repro.noise.uniform import UniformCarrier
from repro.utils.workspace import Workspace


def reference_sigma(block: np.ndarray, formula: CNFFormula) -> np.ndarray:
    """``Π_j Z_j`` with ``Z_j = T^j − T^j_cube``, one clause at a time."""
    result = np.ones(block.shape[-1])
    for index, clause in enumerate(formula.clauses, start=1):
        if not clause:
            z = np.zeros(block.shape[-1])
        else:
            z = clause_full_superposition(block, index)
            cube = falsifying_cube_bindings(clause)
            if cube is not None:
                z = z - clause_cube_subspace(block, index, cube)
        result = result * z
    return result


def reference_tau(block: np.ndarray, bindings: dict) -> np.ndarray:
    """``Π_i (Π_j N^j_x_i + Π_j N^j_~x_i)`` with bound variables reduced."""
    result = np.ones(block.shape[-1])
    for row in range(block.shape[1]):
        positive = np.prod(block[:, row, POSITIVE, :], axis=0)
        negative = np.prod(block[:, row, NEGATIVE, :], axis=0)
        value = bindings.get(row + 1)
        factor = positive + negative if value is None else (positive if value else negative)
        result = result * factor
    return result


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@st.composite
def formulas(draw):
    """Random formulas with empty, unit, duplicate-literal and tautological clauses."""
    n = draw(st.integers(1, 4))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.one_of(
        st.lists(literal, min_size=1, max_size=4),           # unit, duplicates
        st.integers(1, n).map(lambda v: [v, -v]),             # tautology
        st.just([]),                                          # empty clause
    )
    clauses = draw(st.lists(clause, min_size=1, max_size=5))
    if draw(st.integers(0, 3)):  # keep empty clauses the rare case
        clauses = [c for c in clauses if c] or [[1]]
    bindings = draw(st.dictionaries(st.integers(1, n), st.booleans(), max_size=n))
    return CNFFormula.from_ints(clauses, n), bindings


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=formulas(),
    size=st.sampled_from([1, 7, TILE_SAMPLES - 1, TILE_SAMPLES + 37, 2 * TILE_SAMPLES + 5]),
    carrier=st.sampled_from([GaussianCarrier(), BipolarCarrier(), UniformCarrier()]),
    seed=st.integers(0, 2**16),
)
def test_kernel_matches_reference_builders(case, size, carrier, seed):
    formula, bindings = case
    bank = NoiseBank(formula.num_clauses, formula.num_variables, carrier, seed=seed)
    block = bank.sample_block(size)
    kernel = SNKernel(formula)

    got = kernel.evaluate(block, bindings)
    assert got.shape == (size,)
    tau, sigma = reference_tau(block, bindings), reference_sigma(block, formula)
    assert_close(got, tau * sigma)
    # The per-function entry points agree with the references on the whole block.
    assert_close(reference_hyperspace(block, bindings), tau)
    assert_close(sigma_samples(block, formula), sigma)


def test_kernel_is_repeatable_across_reused_buffers():
    formula = CNFFormula.from_ints([[1, -2], [2, 3], [-1, -3], [1, 1, 2]], 3)
    block = NoiseBank(4, 3, GaussianCarrier(), seed=3).sample_block(TILE_SAMPLES + 11)
    kernel = SNKernel(formula)
    first = kernel.evaluate(block, {2: False}).copy()
    kernel.evaluate(block[..., :5].copy(), {1: True})  # dirty the buffers
    np.testing.assert_array_equal(kernel.evaluate(block, {2: False}), first)


def test_evaluators_leave_the_block_untouched():
    formula = CNFFormula.from_ints([[1, 2], [-1, 2], [1, -1]], 2)
    block = NoiseBank(3, 2, GaussianCarrier(), seed=4).sample_block(100)
    before = block.copy()
    SNKernel(formula).evaluate(block, {1: True, 2: False})
    np.testing.assert_array_equal(block, before)


def test_sigma_plan_lists_falsifying_rows():
    formula = CNFFormula.from_ints([[1, -3], [2, -2], [], [3, 3]], 3)
    plan = SigmaPlan.from_formula(formula)
    # Clause 1 (x1 + ~x3) is falsified by x1=F, x3=T; clause 4 dedups to (x3).
    assert plan.cube_rows == ((0, 0, NEGATIVE), (0, 2, POSITIVE), (3, 2, NEGATIVE))
    assert plan.tautologies.tolist() == [1]
    assert plan.has_empty_clause
    assert not SigmaPlan.from_formula(CNFFormula.from_ints([[1]], 1)).has_empty_clause


def test_sigma_accepts_a_compiled_plan_and_caller_buffers():
    formula = CNFFormula.from_ints([[1, 2], [-1, -2]], 2)
    block = NoiseBank(2, 2, GaussianCarrier(), seed=5).sample_block(64)
    out = np.empty(64)
    result = sigma_samples(block, SigmaPlan.from_formula(formula), out=out, workspace=Workspace())
    assert result is out
    np.testing.assert_array_equal(out, sigma_samples(block, formula))


def test_uniform_check_matches_the_untiled_construction():
    """Same seeded uniform check: same mean as the whole-block construction."""
    formula = CNFFormula.from_ints([[1, 2], [1, 2], [-1, 2], [-1, -2]], 2)
    config = NBLConfig(max_samples=50_000, block_size=20_000, convergence="fixed", seed=11)
    result = SampledNBLEngine(formula, config).check({2: True})

    bank = NoiseBank(4, 2, config.carrier, seed=11)
    values = []
    for size in (20_000, 20_000, 10_000):
        block = bank.sample_block(size)
        values.append(reference_tau(block, {2: True}) * reference_sigma(block, formula))
    assert result.mean == pytest.approx(float(np.mean(np.concatenate(values))), rel=1e-12)


def test_one_check_allocates_little_beyond_its_block():
    """A 1M-sample Example 5 check keeps its peak within 1.25 blocks."""
    formula = CNFFormula.from_ints([[1], [2, -3], [-1, 3], [1, -2, 3]], 3)
    block_size = 100_000
    config = NBLConfig(
        carrier=BipolarCarrier(),
        max_samples=1_000_000,
        block_size=block_size,
        convergence="fixed",
        seed=0,
    )
    block_bytes = formula.num_clauses * formula.num_variables * 2 * block_size * 8
    tracemalloc.start()
    try:
        engine = SampledNBLEngine(formula, config)
        result = engine.check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.samples_used == 1_000_000
    assert peak <= 1.25 * block_bytes, f"peak {peak} B vs block {block_bytes} B"
