"""Unit tests of the incremental session layer (repro.incremental)."""

from __future__ import annotations

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.structured import graph_coloring_formula, pigeonhole_formula
from repro.exceptions import SolverError
from repro.incremental import (
    CDCLSession,
    IncrementalSession,
    JobSession,
    ResolveSession,
    make_session,
)
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import DPLLSolver
from repro.solvers.registry import available_solvers


def simple_formula() -> CNFFormula:
    return CNFFormula.from_ints([[1, 2], [-1, -2]])


class TestSessionBasics:
    def test_factory_covers_every_registry_solver(self):
        for name in available_solvers():
            session = make_session(name, base_formula=simple_formula(), seed=5)
            assert isinstance(session, IncrementalSession)
            result = session.solve()
            assert result.is_sat  # every solver finds this model

    def test_cdcl_gets_the_native_session(self):
        assert isinstance(make_session("cdcl"), CDCLSession)
        assert isinstance(make_session("dpll"), ResolveSession)
        assert isinstance(make_session("nbl-symbolic"), ResolveSession)
        assert isinstance(make_session("portfolio"), JobSession)

    def test_solver_make_session_hook(self):
        assert isinstance(CDCLSolver().make_session(), CDCLSession)
        fallback = DPLLSolver().make_session(base_formula=simple_formula())
        assert isinstance(fallback, ResolveSession)
        assert fallback.solve().is_sat

    def test_add_clause_grows_universe(self):
        session = make_session("cdcl")
        assert session.num_variables == 0
        session.add_clause([1, 2])
        session.add_clause([-3])
        assert session.num_variables == 3
        assert session.num_clauses == 2
        model = session.solve().assignment.as_dict()
        assert model[3] is False

    def test_formula_roundtrip(self):
        formula = pigeonhole_formula(3, 3)
        session = make_session("cdcl", base_formula=formula)
        assert session.formula().fingerprint() == formula.fingerprint()

    def test_empty_session_is_sat(self):
        assert make_session("cdcl").solve().is_sat
        assert make_session("cdcl", num_variables=3).solve().is_sat


class TestAssumptions:
    @pytest.mark.parametrize("spec", ["cdcl", "dpll", "brute-force"])
    def test_unsat_under_assumptions_is_not_global(self, spec):
        session = make_session(spec, base_formula=simple_formula())
        assert session.solve(assumptions=[1, 2]).is_unsat
        assert session.solve().is_sat  # the formula itself is untouched

    def test_contradictory_assumptions(self):
        session = make_session("cdcl", base_formula=simple_formula())
        assert session.solve(assumptions=[1, -1]).is_unsat
        assert session.solve().is_sat

    def test_model_respects_assumptions(self):
        session = make_session("cdcl", base_formula=simple_formula())
        model = session.solve(assumptions=[-2]).assignment.as_dict()
        assert model[2] is False and model[1] is True

    def test_incomplete_solver_reports_unknown_not_unsat(self):
        session = make_session("walksat", base_formula=simple_formula(), seed=7)
        result = session.solve(assumptions=[1, 2])
        assert result.status == "UNKNOWN"

    def test_assumption_validation(self):
        session = make_session("cdcl", base_formula=simple_formula())
        with pytest.raises(SolverError):
            session.solve(assumptions=[0])
        with pytest.raises(SolverError):
            session.solve(assumptions=[99])
        with pytest.raises(SolverError):
            session.solve(assumptions=["1"])

    def test_root_unsat_sticks(self):
        session = make_session("cdcl", num_variables=1)
        session.add_clause([1])
        session.add_clause([-1])
        assert session.solve().is_unsat
        assert session.solve(assumptions=[1]).is_unsat
        assert session.solver.root_unsat


class TestScopes:
    @pytest.mark.parametrize("spec", ["cdcl", "dpll"])
    def test_push_pop_restores_satisfiability(self, spec):
        session = make_session(spec, base_formula=simple_formula())
        session.push()
        session.add_clause([1])
        session.add_clause([2])
        assert session.solve().is_unsat
        session.pop()
        assert session.solve().is_sat
        assert session.num_clauses == 2

    def test_nested_scopes(self):
        session = make_session("cdcl", num_variables=2)
        session.add_clause([1, 2])
        with session.scope():
            session.add_clause([-1])
            with session.scope():
                session.add_clause([-2])
                assert session.solve().is_unsat
                assert session.scope_depth == 2
            assert session.solve().is_sat
        assert session.scope_depth == 0
        assert session.num_clauses == 1

    def test_pop_without_push_raises(self):
        with pytest.raises(SolverError):
            make_session("cdcl").pop()

    def test_pop_keeps_variable_universe(self):
        session = make_session("cdcl", num_variables=1)
        session.push()
        session.add_clause([2, 3])
        session.pop()
        assert session.num_variables == 3
        assert session.solve(assumptions=[3]).is_sat


class TestWarmState:
    def test_learned_clauses_survive_across_queries(self):
        formula = pigeonhole_formula(5, 4)  # UNSAT, needs real learning
        session = make_session("cdcl", base_formula=formula)
        first = session.solve()
        assert first.is_unsat and first.stats.learned_clauses > 0
        second = session.solve()
        assert second.is_unsat
        # The root-level refutation is remembered: re-asking is free.
        assert second.stats.conflicts <= first.stats.conflicts

    def test_k_sweep_uses_fewer_decisions_than_fresh(self):
        """Tier-1 guard for the bench_incremental acceptance criterion."""
        edges, n = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5
        for _ in range(2):  # Mycielski twice: chromatic number 5
            edges = (
                list(edges)
                + [(u, n + v) for u, v in edges]
                + [(v, n + u) for u, v in edges]
                + [(n + i, 2 * n) for i in range(n)]
            )
            n = 2 * n + 1
        K = 6
        formula = graph_coloring_formula(edges, n, K)

        def blocked(k):
            return [
                -(v * K + c + 1) for v in range(n) for c in range(k, K)
            ]

        session = make_session("cdcl", base_formula=formula)
        warm = [session.solve(assumptions=blocked(k)) for k in range(2, K + 1)]
        fresh = [
            CDCLSolver().solve(formula.with_assumptions(blocked(k)))
            for k in range(2, K + 1)
        ]
        assert [r.status for r in warm] == [r.status for r in fresh]
        assert sum(r.stats.decisions for r in warm) < sum(
            r.stats.decisions for r in fresh
        )

    def test_total_stats_accumulate(self):
        session = make_session("cdcl", base_formula=pigeonhole_formula(4, 3))
        session.solve()
        session.solve(assumptions=[1])
        assert session.num_queries == 2
        assert session.total_stats.conflicts >= 1
        assert session.total_stats.elapsed_seconds >= 0.0


class TestFrontends:
    def test_nbl_symbolic_session(self):
        session = make_session("nbl-symbolic", base_formula=simple_formula())
        assert session.solve().is_sat
        assert session.solve(assumptions=[1, 2]).is_unsat

    def test_nbl_sampled_session_never_says_unsat(self):
        session = make_session(
            "nbl-sampled",
            base_formula=CNFFormula.from_ints([[1], [-1]]),
            seed=3,
            samples=20_000,
        )
        assert session.solve().status in ("UNKNOWN",)

    def test_portfolio_session_records_last_race(self):
        session = make_session("portfolio", base_formula=simple_formula(), seed=9)
        result = session.solve()
        assert result.is_sat
        assert session.last_outcome is not None
        assert session.last_outcome.winner
        assert result.solver_name.startswith("portfolio:")

    def test_portfolio_solver_make_session(self):
        session = make_session("portfolio", base_formula=simple_formula(), seed=2)
        assert session.solve(assumptions=[-1]).is_sat


class TestPreprocessingSessions:
    """``make_session(spec, preprocess=True)`` answers each query as a job."""

    CHAIN = CNFFormula.from_ints([[-4, 5], [-5, 6], [1, 2], [2, 3]], 6)

    def test_every_spec_gets_a_job_session(self):
        for spec in ("cdcl", "dpll", "nbl-symbolic", "portfolio"):
            session = make_session(spec, preprocess=True)
            assert isinstance(session, JobSession)
            assert session.solver_name == spec

    def test_assumption_variables_are_frozen(self):
        # PHP(4,3) is UNSAT without any assumption: frozen assumption
        # variables leave the refutation to the formula, so the core is
        # empty rather than the assumption set.
        session = make_session(
            "cdcl", base_formula=pigeonhole_formula(4, 3), preprocess=True
        )
        assert session.solve((1,)).is_unsat
        assert session.unsat_core() == ()

    def test_nbl_symbolic_session_preprocesses(self):
        session = make_session(
            "nbl-symbolic", base_formula=self.CHAIN, preprocess=True
        )
        result = session.solve((4,))
        assert result.is_sat
        assert result.assignment.as_dict()[6] is True
        assert session.solve((4, -6)).is_unsat
        assert set(session.unsat_core()) <= {4, -6}
        assert session.last_outcome.status == "UNSAT"

    def test_unknown_spec_rejected(self):
        with pytest.raises(SolverError):
            make_session("nope", preprocess=True)

    def test_proof_log_rejected(self):
        from repro.proofs import ProofLog

        session = make_session("cdcl", preprocess=True)
        with pytest.raises(SolverError):
            session.set_proof_log(ProofLog())
