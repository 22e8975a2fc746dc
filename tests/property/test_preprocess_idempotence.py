"""Property: a preprocessing fixpoint is a fixpoint.

When the pipeline stops because a whole round changed nothing, no
technique can find anything in its output: re-preprocessing the reduced
formula (with the same frozen variables, renumbered) must do zero work.
The fixpoint loop skips the checks its change record proves idle, so a
skip rule that wrongly skipped a real opportunity would leave that
opportunity in the output, and this test would find it.
"""

from __future__ import annotations

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.preprocess import Preprocessor, PreprocessStats

MAX_VARS = 30

_WORK_COUNTERS = (
    "tautologies_removed",
    "units_propagated",
    "pure_literals",
    "subsumed_clauses",
    "strengthened_literals",
    "blocked_clauses",
    "eliminated_variables",
)


@st.composite
def _instances(draw):
    """Random 2-, 3- and 4-clauses over 8-30 variables: mixed lengths give
    every technique work, and most draws end REDUCED, not decided."""
    num_variables = draw(st.integers(min_value=8, max_value=MAX_VARS))
    clauses = []
    for k, low, high in ((2, 0, 1), (3, 1, 4), (4, 0, 4)):
        count = draw(
            st.integers(min_value=low * num_variables, max_value=high * num_variables)
        )
        if count:
            seed = draw(st.integers(min_value=0, max_value=2**31))
            clauses += random_ksat(num_variables, count, k, seed=seed).to_ints()
    frozen = draw(
        st.sets(st.integers(min_value=1, max_value=num_variables), max_size=2)
    )
    bve_growth = draw(st.sampled_from([0, 0, 2]))
    return CNFFormula.from_ints(clauses, num_variables), frozen, bve_growth


def test_work_counters_cover_every_technique():
    fields = {field.name for field in dataclasses.fields(PreprocessStats)}
    assert set(_WORK_COUNTERS) <= fields


@given(_instances())
@settings(max_examples=100, deadline=None)
def test_reprocessing_a_fixpoint_does_zero_work(instance):
    formula, frozen, bve_growth = instance
    preprocessor = Preprocessor(bve_growth=bve_growth)
    result = preprocessor.preprocess(formula, frozen=frozen)
    assume(result.status != "UNSAT")
    assume(result.stats.rounds < preprocessor.max_rounds)
    assert not result.stats.interrupted

    again = preprocessor.preprocess(
        result.formula, frozen=[result.variable_map[v] for v in frozen]
    )
    work = {name: getattr(again.stats, name) for name in _WORK_COUNTERS}
    assert work == dict.fromkeys(_WORK_COUNTERS, 0)
    assert again.stats.rounds == 1
    assert again.formula == result.formula
