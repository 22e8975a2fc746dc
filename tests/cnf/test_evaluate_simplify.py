"""Tests for repro.cnf.evaluate."""

from __future__ import annotations

import pytest

from repro.cnf.evaluate import (
    clause_minterm_mask,
    count_models,
    enumerate_models,
    first_model,
    satisfying_minterm_mask,
)
from repro.cnf.formula import CNFFormula
from repro.cnf.paper_instances import section4_sat_instance, section4_unsat_instance
from repro.exceptions import CNFError


class TestEvaluate:
    def test_clause_minterm_mask(self):
        mask = clause_minterm_mask((1, -2), 2)
        # minterm index bit0 = x1, bit1 = x2
        assert list(mask) == [True, True, False, True]

    def test_satisfying_mask_of_paper_instances(self):
        assert satisfying_minterm_mask(section4_unsat_instance()).sum() == 0
        sat_mask = satisfying_minterm_mask(section4_sat_instance())
        assert sat_mask.sum() == 1
        assert sat_mask[2]  # x1=0, x2=1 -> index 0b10

    def test_count_models(self):
        formula = CNFFormula.from_ints([[1, 2]])
        assert count_models(formula) == 3

    def test_count_models_empty_formula(self):
        assert count_models(CNFFormula([])) == 1
        assert count_models(CNFFormula([[]], num_variables=0)) == 0

    def test_enumerate_models(self):
        formula = CNFFormula.from_ints([[1], [2]])
        models = list(enumerate_models(formula))
        assert len(models) == 1
        assert models[0] == {1: True, 2: True}

    def test_first_model(self):
        assert first_model(section4_unsat_instance()) is None
        model = first_model(section4_sat_instance())
        assert model is not None and model == {1: False, 2: True}

    def test_enumeration_limit(self):
        big = CNFFormula.from_ints([[1]], num_variables=30)
        with pytest.raises(CNFError):
            count_models(big)

    def test_models_actually_satisfy(self):
        formula = CNFFormula.from_ints([[1, 2, 3], [-1, -2], [2, -3]])
        for model in enumerate_models(formula):
            assert formula.evaluate(model.as_dict())
