"""Unit tests for the preprocessing pipeline (repro.preprocess)."""

from __future__ import annotations

import pytest

from repro.cnf.dimacs import parse_dimacs, to_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.structured import all_equal_formula, pigeonhole_formula
from repro.exceptions import PreprocessError
from repro.preprocess import (
    ClauseDatabase,
    Preprocessor,
    preprocess_formula,
)


class TestClauseDatabase:
    def test_load_occurrence_and_removal(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, 3], [2, 3]])
        db, tautologies = ClauseDatabase.from_formula(formula)
        assert tautologies == 0
        assert len(db) == 3
        assert db.occurrences(2) == {0, 2}
        assert db.occurrences(-1) == {1}
        db.remove(0)
        assert len(db) == 2
        assert db.occurrences(2) == {2}
        assert not db.is_alive(0)

    def test_tautologies_dropped_on_load(self):
        formula = CNFFormula.from_ints([[1, -1], [2]])
        db, tautologies = ClauseDatabase.from_formula(formula)
        assert tautologies == 1
        assert len(db) == 1

    def test_strengthen_to_empty_is_reported(self):
        db = ClauseDatabase()
        cid = db.add([5])
        assert db.strengthen(cid, 5) == frozenset()

    def test_dead_clause_access_raises(self):
        db = ClauseDatabase()
        cid = db.add([1, 2])
        db.remove(cid)
        with pytest.raises(PreprocessError):
            db.clause(cid)


class TestUnitsAndPure:
    def test_unit_propagation_chain(self):
        # x1 forces x2 forces x3; the remaining clause is satisfied.
        formula = CNFFormula.from_ints([[1], [-1, 2], [-2, 3], [3, 4]])
        result = preprocess_formula(formula, techniques=["units"])
        assert result.status == "SAT"
        assert result.stats.units_propagated == 3
        model = result.reconstruct()
        assert formula.evaluate(model.as_dict())
        assert model[1] and model[2] and model[3]

    def test_unit_conflict_detected(self):
        formula = CNFFormula.from_ints([[1], [-1]])
        result = preprocess_formula(formula, techniques=["units"])
        assert result.status == "UNSAT"
        with pytest.raises(PreprocessError):
            result.reconstruct()

    def test_pure_literal_cascade(self):
        # x1 is pure; removing its clauses makes x2 pure as well.
        formula = CNFFormula.from_ints([[1, 2], [1, -2], [2, 3], [-3, 2]])
        result = preprocess_formula(formula, techniques=["pure"])
        assert result.status == "SAT"
        assert result.stats.pure_literals >= 2
        assert formula.evaluate(result.reconstruct().as_dict())

    def test_input_empty_clause_is_unsat(self):
        formula = CNFFormula([[1, 2], []], num_variables=2)
        result = preprocess_formula(formula)
        assert result.status == "UNSAT"


class TestSubsumption:
    def test_subsumed_clause_removed(self):
        formula = CNFFormula.from_ints([[1, 2], [1, 2, 3], [1, 2, 4]])
        result = preprocess_formula(formula, techniques=["subsumption"])
        assert result.stats.subsumed_clauses == 2
        assert result.formula.num_clauses == 1

    def test_duplicate_clauses_collapse(self):
        formula = CNFFormula.from_ints([[1, 2], [2, 1], [1, 2]])
        result = preprocess_formula(formula, techniques=["subsumption"])
        assert result.formula.num_clauses == 1

    def test_self_subsuming_resolution_strengthens(self):
        # (1 2) and (-1 2 3): resolving on 1 gives (2 3) ⊂ (-1 2 3),
        # so the second clause loses the -1 literal.
        formula = CNFFormula.from_ints([[1, 2], [-1, 2, 3]])
        result = preprocess_formula(formula, techniques=["subsumption"])
        assert result.stats.strengthened_literals == 1
        assert sorted(len(c) for c in result.formula) == [2, 2]

    def test_contradictory_units_conflict_via_strengthening(self):
        formula = CNFFormula.from_ints([[4], [-4]])
        result = preprocess_formula(formula, techniques=["subsumption"])
        assert result.status == "UNSAT"


class TestBlockedClauses:
    def test_mutually_blocked_pair(self):
        # Every resolvent of (1 2) with (-1 -2) is tautological: both
        # clauses are blocked, and reconstruction must still find a model.
        formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
        result = preprocess_formula(formula, techniques=["bce"])
        assert result.status == "SAT"
        assert result.stats.blocked_clauses == 2
        assert formula.evaluate(result.reconstruct().as_dict())

    def test_blocked_clause_with_survivors(self):
        # (1 2 3) is blocked on 3: its only partner (-3 -2) resolves to a
        # tautology. (1 2) keeps constraining the reduced formula.
        formula = CNFFormula.from_ints([[1, 2, 3], [-3, -2], [1, 2]])
        result = preprocess_formula(formula, techniques=["bce"])
        assert result.stats.blocked_clauses >= 1
        # Solve the reduced formula by brute force over its few variables.
        from repro.cnf.evaluate import enumerate_models

        models = list(enumerate_models(result.formula))
        assert models, "reduced formula should stay satisfiable"
        model = result.reconstruct(models[0].as_dict())
        assert formula.evaluate(model.as_dict())


class TestVariableElimination:
    def test_chain_collapses_completely(self):
        formula = all_equal_formula(12)
        result = preprocess_formula(formula, techniques=["bve"])
        assert result.status == "SAT"
        assert formula.evaluate(result.reconstruct().as_dict())

    def test_unsat_via_elimination(self):
        result = preprocess_formula(pigeonhole_formula(3, 2))
        assert result.status == "UNSAT"

    def test_occurrence_limit_skips_dense_variables(self):
        formula = pigeonhole_formula(5, 4)
        strict = preprocess_formula(formula, bve_occurrence_limit=1)
        assert strict.stats.eliminated_variables == 0

    def test_growth_budget_zero_never_grows(self):
        formula = all_equal_formula(10)
        result = preprocess_formula(formula, techniques=["bve"], bve_growth=0)
        assert result.formula.num_clauses <= formula.num_clauses


class TestFrozenVariables:
    def test_frozen_variables_survive(self):
        # x1 is pure and x3 only occurs in a unit clause: both would be
        # eliminated, but freezing keeps them in the reduced universe.
        formula = CNFFormula.from_ints([[1, 2], [1, -2], [3]])
        result = preprocess_formula(formula, frozen=[1, 3])
        assert 1 in result.variable_map and 3 in result.variable_map

    def test_unmentioned_frozen_variable_kept_in_map(self):
        formula = CNFFormula.from_ints([[1, 2]], num_variables=5)
        result = preprocess_formula(formula, frozen=[5])
        assert 5 in result.variable_map

    def test_map_assumptions_roundtrip(self):
        formula = CNFFormula.from_ints([[1, 2], [2, 3], [3, 4]])
        result = preprocess_formula(formula, frozen=[2, 4])
        mapped = result.map_assumptions([2, -4])
        assert mapped == (result.variable_map[2], -result.variable_map[4])

    def test_map_assumptions_rejects_eliminated_variable(self):
        formula = CNFFormula.from_ints([[1, 2], [1, -2]])
        result = preprocess_formula(formula)  # nothing frozen
        if 1 not in result.variable_map:
            with pytest.raises(PreprocessError):
                result.map_assumptions([1])


class TestResultAndConfig:
    def test_reduced_formula_is_compactly_renumbered(self):
        formula = CNFFormula.from_ints([[1], [-1, 5], [5, 9], [-9, 5], [9, -5]])
        result = preprocess_formula(formula, techniques=["units"])
        if result.status == "REDUCED":
            used = result.formula.variables()
            assert used == set(range(1, len(used) + 1))

    def test_reduced_dimacs_roundtrip(self):
        formula = pigeonhole_formula(4, 4)
        result = preprocess_formula(formula, techniques=["subsumption"])
        text = to_dimacs(result.formula)
        assert parse_dimacs(text) == result.formula

    def test_stats_reduction_fractions(self):
        result = preprocess_formula(all_equal_formula(10))
        assert result.stats.clause_reduction == 1.0
        assert result.stats.variable_reduction == 1.0
        assert "clauses" in result.stats.to_text()

    def test_unknown_technique_rejected(self):
        with pytest.raises(PreprocessError):
            Preprocessor(techniques=["units", "magic"])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_rounds": 0},
            {"bve_growth": -1},
            {"bve_occurrence_limit": 0},
        ],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(PreprocessError):
            Preprocessor(**kwargs)

    def test_reconstruct_rejects_unknown_reduced_variable(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, 2], [1, -2]])
        result = preprocess_formula(formula, techniques=["subsumption"])
        if result.status == "REDUCED":
            with pytest.raises(PreprocessError):
                result.reconstruct({result.formula.num_variables + 7: True})

    def test_empty_formula_is_trivially_sat(self):
        result = preprocess_formula(CNFFormula([], num_variables=4))
        assert result.status == "SAT"
        assert result.reconstruct().is_complete(4)


class TestDeadline:
    def test_expired_deadline_interrupts_soundly(self):
        import time

        from repro.cnf.generators import random_ksat
        from repro.solvers.cdcl import CDCLSolver

        formula = random_ksat(20, 60, 3, seed=5)
        result = Preprocessor().preprocess(formula, deadline=time.monotonic())
        assert result.stats.interrupted
        assert result.status == "REDUCED"
        # The untouched (merely renumbered) formula is still the same
        # problem: a model of the reduction reconstructs to a model of
        # the original.
        inner = CDCLSolver().solve(result.formula)
        assert inner.is_sat
        model = result.reconstruct(inner.assignment.as_dict())
        assert formula.evaluate(model.as_dict())

    def test_generous_deadline_reaches_fixpoint(self):
        import time

        formula = pigeonhole_formula(5, 4)
        bounded = Preprocessor().preprocess(
            formula, deadline=time.monotonic() + 60.0
        )
        unbounded = Preprocessor().preprocess(formula)
        assert not bounded.stats.interrupted
        assert bounded.formula == unbounded.formula

    def test_deadline_expiring_during_subsumption_skips_bce(self, monkeypatch):
        # The budget runs out while subsumption runs: the pipeline must stop
        # before the BCE pass, so it overshoots by at most that one pass.
        import time

        from repro.preprocess import pipeline

        clock = {"now": 0.0}

        class _Clock:
            perf_counter = staticmethod(time.perf_counter)

            @staticmethod
            def monotonic():
                return clock["now"]

        subsume = Preprocessor._subsume_and_strengthen
        ran = []

        def expiring_subsume(self, *args, **kwargs):
            ran.append("subsumption")
            changed = subsume(self, *args, **kwargs)
            clock["now"] = 10.0
            return changed

        def recording_bce(self, *args, **kwargs):
            ran.append("bce")
            return False

        monkeypatch.setattr(pipeline, "time", _Clock)
        monkeypatch.setattr(
            Preprocessor, "_subsume_and_strengthen", expiring_subsume
        )
        monkeypatch.setattr(Preprocessor, "_eliminate_blocked", recording_bce)
        formula = all_equal_formula(6)
        result = Preprocessor().preprocess(formula, deadline=5.0)
        assert ran == ["subsumption"]
        assert result.stats.interrupted
        assert result.stats.rounds == 1
        assert result.stats.blocked_clauses == 0
        assert result.stats.eliminated_variables == 0
        model = result.reconstruct(
            {variable: True for variable in result.variable_map.values()}
        )
        assert formula.evaluate(model.as_dict())

    def test_solver_timeout_bounds_preprocessing(self):
        # A job's timeout forwards its deadline into the pipeline: a
        # pathological budget must not hang in preprocessing (and the
        # result is UNKNOWN/timed_out or a genuine verdict, never a crash).
        from repro.cnf.generators import random_ksat
        from repro.runtime import SolveJob, execute_job

        formula = random_ksat(30, 120, 3, seed=6)
        outcome = execute_job(
            SolveJob(formula=formula, solver="cdcl", timeout=1e-6, preprocess=True)
        )
        assert outcome.status in ("SAT", "UNSAT", "UNKNOWN")
