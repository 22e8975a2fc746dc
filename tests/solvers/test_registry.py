"""Tests for the solver registry extension point and the timeout hook."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.exceptions import SolverError
from repro.hybrid.solver import HybridNBLSolver
from repro.solvers.base import SAT, UNKNOWN, SATSolver, SolverResult, SolverStats
from repro.solvers.registry import available_solvers, make_solver, register_solver

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


class TestRegisterSolver:
    def test_hybrid_is_registered_by_default(self):
        assert "hybrid" in available_solvers()
        solver = make_solver("hybrid")
        assert isinstance(solver, HybridNBLSolver)

    def test_hybrid_solves_by_name(self):
        result = make_solver("hybrid").solve(
            CNFFormula.from_ints([[1, 2], [-1, -2]])
        )
        assert result.status == SAT

    def test_register_and_make(self):
        class ToySolver(SATSolver):
            name = "toy-registry-test"

            def _solve(self, formula):
                return SolverResult(UNKNOWN, None, SolverStats())

        try:
            register_solver(ToySolver)
            assert "toy-registry-test" in available_solvers()
            assert isinstance(make_solver("toy-registry-test"), ToySolver)
        finally:
            from repro.solvers import registry

            registry._REGISTERED.pop("toy-registry-test", None)

    def test_duplicate_registration_rejected_without_override(self):
        with pytest.raises(SolverError):
            register_solver(HybridNBLSolver, name="dpll")

    def test_non_solver_class_rejected(self):
        with pytest.raises(SolverError):
            register_solver(dict, name="not-a-solver")

    def test_default_name_rejected(self):
        class Nameless(SATSolver):
            def _solve(self, formula):
                return SolverResult(UNKNOWN)

        with pytest.raises(SolverError):
            register_solver(Nameless)


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter, whose registry nothing has used yet."""
    subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )


class TestRegistrationBeforeFirstUse:
    """A registration made before the registry is first used leaves the
    other built-ins intact; each check runs in a fresh interpreter."""

    def test_overriding_hybrid_keeps_the_nbl_engines(self):
        _run_fresh(
            """
            from repro.exceptions import SolverError
            from repro.solvers.base import SATSolver
            from repro.solvers.registry import make_solver, register_solver

            class Toy(SATSolver):
                name = "toy"

                def _solve(self, formula):
                    raise NotImplementedError

            register_solver(Toy, name="hybrid", override=True)
            assert make_solver("nbl-symbolic").name == "nbl-symbolic"
            assert type(make_solver("hybrid")) is Toy
            try:
                register_solver(Toy, name="nbl-sampled")
            except SolverError as exc:
                assert "already registered" in str(exc)
            else:
                raise AssertionError("a built-in name was taken without override")
            """
        )

    def test_overriding_nbl_sampled_keeps_every_other_solver(self):
        _run_fresh(
            """
            from repro.solvers.base import SATSolver
            from repro.solvers.registry import make_solver, register_solver

            class Toy(SATSolver):
                name = "toy"

                def _solve(self, formula):
                    raise NotImplementedError

            register_solver(Toy, name="nbl-sampled", override=True)
            assert make_solver("cdcl").name == "cdcl"
            assert make_solver("hybrid").name == "hybrid-nbl"
            assert type(make_solver("nbl-sampled")) is Toy
            """
        )


class TestTimeoutHook:
    @pytest.mark.parametrize("name", ["dpll", "cdcl", "walksat", "gsat"])
    def test_expired_budget_yields_unknown(self, name):
        formula = random_ksat(20, 85, seed=0)
        solver = make_solver(name, **({"seed": 0} if name in ("walksat", "gsat") else {}))
        # A budget this small expires at the first cooperative checkpoint.
        result = solver.solve(formula, timeout=1e-9)
        assert result.status == UNKNOWN
        assert result.timed_out
        assert result.solver_name == solver.name

    def test_generous_budget_does_not_interfere(self):
        formula = CNFFormula.from_ints([[1, 2], [-1, -2]])
        result = make_solver("dpll").solve(formula, timeout=60.0)
        assert result.status == SAT
        assert not result.timed_out

    def test_deadline_is_cleared_between_runs(self):
        solver = make_solver("dpll")
        formula = random_ksat(12, 50, seed=1)
        timed = solver.solve(formula, timeout=1e-9)
        assert timed.timed_out
        fresh = solver.solve(formula)
        assert fresh.status in (SAT, "UNSAT")
        assert not fresh.timed_out

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError):
            make_solver("dpll").solve(CNFFormula.from_ints([[1]]), timeout=0)

    def test_hybrid_forwards_timeout_to_inner_search(self):
        formula = random_ksat(20, 85, seed=0)
        result = make_solver("hybrid").solve(formula, timeout=1e-9)
        assert result.status == UNKNOWN
        assert result.timed_out
        assert result.solver_name == "hybrid-nbl"
