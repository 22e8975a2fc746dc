"""The int-bitset exact engine against the independent numpy oracle.

:mod:`repro.cnf.evaluate` enumerates minterms with numpy bit arithmetic and
shares no code with :mod:`repro.hyperspace.minterm`; every model set and
every model count under a binding prefix must agree with it exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf.evaluate import clause_minterm_mask, satisfying_minterm_mask
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import planted_ksat
from repro.core.sigma import satisfying_minterms
from repro.core.symbolic import SymbolicNBLEngine
from repro.hyperspace.minterm import MintermSet

MAX_VARS = 9


def oracle_count(models: np.ndarray, bindings: dict) -> int:
    """Members of the oracle's model mask inside the cube ``bindings``."""
    mask = models.copy()
    index = np.arange(mask.size)
    for variable, value in bindings.items():
        mask &= ((index >> (variable - 1)) & 1).astype(bool) == value
    return int(mask.sum())


def assert_matches_oracle(formula: CNFFormula, prefixes) -> None:
    oracle = satisfying_minterm_mask(formula)
    assert np.array_equal(satisfying_minterms(formula).mask, oracle)
    engine = SymbolicNBLEngine(formula)
    for bindings in prefixes:
        assert engine.model_count(bindings) == oracle_count(oracle, bindings)


def all_prefixes(num_variables: int, value: bool = True) -> list[dict]:
    """The binding prefixes Algorithm 2 walks through, one polarity each."""
    return [
        {variable: value for variable in range(1, length + 1)}
        for length in range(num_variables + 1)
    ]


@st.composite
def formulas_and_prefixes(draw):
    n = draw(st.integers(min_value=1, max_value=MAX_VARS))
    literal = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=3 * n))
    formula = CNFFormula.from_ints(clauses, num_variables=n)
    values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    prefixes = [
        {v: values[v - 1] for v in range(1, length + 1)} for length in range(n + 1)
    ]
    return formula, prefixes


@given(formulas_and_prefixes())
@settings(max_examples=150, deadline=None)
def test_random_formulas_and_prefixes_match_oracle(case):
    formula, prefixes = case
    assert_matches_oracle(formula, prefixes)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fewer_than_eight_minterms(n):
    """``2^n < 8``: the byte buffer behind ``.mask`` is padded past ``2^n``."""
    for clauses in ([], [[1]], [[-1]], [[n], [-n]], [[1, -n]]):
        formula = CNFFormula.from_ints(clauses, num_variables=n)
        assert_matches_oracle(formula, all_prefixes(n) + all_prefixes(n, False))
        assert MintermSet.full(n).mask.shape == (1 << n,)


def test_tautological_duplicate_and_empty_clauses():
    formula = CNFFormula.from_ints([[1, -1], [2, 3]], num_variables=3)
    assert_matches_oracle(formula, all_prefixes(3) + all_prefixes(3, False))
    with_empty = CNFFormula.from_ints([[1, 2], []], num_variables=2)
    assert satisfying_minterms(with_empty).count() == 0
    assert_matches_oracle(with_empty, all_prefixes(2))
    # CNFFormula drops repeated literals, so exercise the raw clause path too.
    for clause in ((2, 2, -3), (1, -1), (-3, -3), ()):
        assert np.array_equal(
            MintermSet.from_clause(3, clause).mask, clause_minterm_mask(clause, 3)
        )


def test_twenty_variables():
    formula, _ = planted_ksat(20, 80, seed=3)
    prefixes = all_prefixes(20)[::4] + [{1: False, 7: True, 20: False}]
    assert_matches_oracle(formula, prefixes)
    assert satisfying_minterms(formula).count() > 0
