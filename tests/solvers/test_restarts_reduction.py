"""Unit tests of the kernel's restart schedule, LBD scoring and the
interaction of DB reduction with proofs and cores."""

from __future__ import annotations

import numpy as np

from repro.cnf.generators import random_ksat
from repro.cnf.structured import pigeonhole_formula
from repro.proofs import ProofLog, check_proof
from repro.solvers.base import SolverStats
from repro.solvers.cdcl import CDCLSolver, luby
from repro.solvers.cdcl.kernel import ArenaKernel


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_power_boundaries(self):
        # The sequence peaks at 2**(k-1) exactly at positions 2**k - 1.
        for k in range(1, 12):
            assert luby((1 << k) - 1) == 1 << (k - 1)
            assert luby(1 << k) == 1  # ...and restarts from 1 right after

    def test_restarts_follow_the_schedule(self):
        """With restart_base=3 a pigeonhole instance restarts repeatedly;
        conflict counts stay bounded by the Luby-scheduled budget."""
        solver = CDCLSolver(restart_base=3)
        result = solver.solve(pigeonhole_formula(5, 4))
        assert result.status == "UNSAT"
        assert result.stats.restarts > 0
        budget = sum(3 * luby(i) for i in range(1, result.stats.restarts + 2))
        assert result.stats.conflicts <= budget


class TestLBD:
    """LBD on hand-built trails: learn() recomputes the literal block
    distance (distinct decision levels, asserting literal's level counted
    once) when analyze's stamp is absent."""

    @staticmethod
    def _kernel_with_levels(levels: dict[int, int]) -> ArenaKernel:
        kernel = ArenaKernel(max(levels) + 2)
        for var, level in levels.items():
            kernel.level[var] = level
        return kernel

    @staticmethod
    def _stored_lbd(kernel: ArenaKernel) -> int:
        return kernel.arena[kernel.learned_refs[-1] + 2]

    def test_distinct_levels_count(self):
        # Tail literals at levels {1, 1, 2} plus the asserting literal:
        # 2 distinct tail levels + 1 = 3.
        kernel = self._kernel_with_levels({2: 1, 3: 1, 4: 2})
        learned = [1 << 1, (2 << 1) | 1, (3 << 1) | 1, (4 << 1) | 1]
        kernel.learn(learned, SolverStats())
        assert self._stored_lbd(kernel) == 3

    def test_glue_clause_has_lbd_two(self):
        # All tail literals on one level: 1 + 1 = 2 — a glue clause.
        kernel = self._kernel_with_levels({2: 3, 3: 3, 4: 3})
        learned = [1 << 1, (2 << 1) | 1, (3 << 1) | 1, (4 << 1) | 1]
        kernel.learn(learned, SolverStats())
        assert self._stored_lbd(kernel) == 2

    def test_all_distinct_levels(self):
        kernel = self._kernel_with_levels({2: 1, 3: 2, 4: 3, 5: 4})
        learned = [1 << 1] + [(v << 1) | 1 for v in (2, 3, 4, 5)]
        kernel.learn(learned, SolverStats())
        assert self._stored_lbd(kernel) == 5

    def test_explicit_stamp_wins(self):
        # analyze() passes its own stamp; learn must store it verbatim.
        kernel = self._kernel_with_levels({2: 1, 3: 1})
        kernel.learn([1 << 1, (2 << 1) | 1, (3 << 1) | 1], SolverStats(), lbd=7)
        assert self._stored_lbd(kernel) == 7


class TestReductionAndProofs:
    def test_reduction_deletions_land_in_a_checkable_proof(self):
        """Aggressive reduction emits DRAT ``d`` lines; the checker must
        still verify the proof end to end."""
        formula = pigeonhole_formula(5, 4)
        solver = CDCLSolver(restart_base=3, reduce_interval=8, keep_lbd=1)
        solver.begin_incremental(num_variables=formula.num_variables)
        for clause in formula.to_ints():
            solver.attach_clause(clause)
        log = ProofLog()
        solver.set_proof_log(log)
        result = solver.solve_incremental()
        assert result.status == "UNSAT"
        assert solver._kernel.reductions > 0, "reduction path not exercised"
        verdict = check_proof(formula, log.text())
        assert verdict, f"proof rejected after reductions: {verdict.reason}"
        assert verdict.deletions > 0

    def test_reduction_never_drops_a_core_clause(self, seed):
        """Regression: queries that trigger learned-clause reduction between
        calls must not delete clauses a later ``unsat_core`` depends on."""
        rng = np.random.default_rng(seed + 7)
        # PHP(5,4): PHP(4,3) is too small for reduce_interval=8 to fire.
        session = CDCLSolver(
            restart_base=3, reduce_interval=8, keep_lbd=1
        ).make_session(base_formula=pigeonhole_formula(5, 4))
        fresh = CDCLSolver()
        cores_checked = 0
        for _ in range(12):
            assumptions = [
                int(v) if rng.integers(2) else -int(v)
                for v in rng.choice(
                    np.arange(1, 13), size=int(rng.integers(1, 4)), replace=False
                )
            ]
            result = session.solve(assumptions=assumptions)
            if not result.is_unsat:
                continue
            core = session.unsat_core()
            assert core is not None
            assert set(core) <= set(assumptions)
            recheck = fresh.solve(
                session.formula().with_assumptions(core)
            )
            assert recheck.is_unsat, (
                f"core {core} does not explain UNSAT after reduction"
            )
            cores_checked += 1
        assert session.solver._kernel.reductions > 0, (
            "reduction path not exercised"
        )
        assert cores_checked >= 1

    def test_assumption_levels_survive_extreme_restarts(self, seed):
        """Assumption-prefix retention across restarts: with restarts after
        every conflict, incremental verdicts and cores must still match
        fresh solves of the assumption-strengthened formula."""
        rng = np.random.default_rng(seed + 9)
        fresh = CDCLSolver()
        unsat_seen = 0
        for _ in range(10):
            num_vars = int(rng.integers(6, 12))
            formula = random_ksat(
                num_vars,
                round(4.5 * num_vars),
                3,
                seed=int(rng.integers(0, 2**31)),
            )
            session = CDCLSolver(
                restart_base=1, reduce_interval=8, keep_lbd=1
            ).make_session(base_formula=formula)
            for _ in range(4):
                size = int(rng.integers(1, 5))
                assumptions = [
                    int(v) if rng.integers(2) else -int(v)
                    for v in rng.choice(
                        np.arange(1, num_vars + 1), size=size, replace=False
                    )
                ]
                result = session.solve(assumptions=assumptions)
                reference = fresh.solve(formula.with_assumptions(assumptions))
                assert result.status == reference.status
                assert session.solver._kernel.check_invariants() == []
                if result.is_unsat:
                    unsat_seen += 1
                    core = session.unsat_core()
                    assert set(core) <= set(assumptions)
                    if core:
                        assert fresh.solve(
                            formula.with_assumptions(core)
                        ).is_unsat
        assert unsat_seen >= 1

    def test_reduction_keeps_verdicts_honest(self, seed):
        """Differential spot-check: extreme knobs vs default knobs agree on
        a batch of random formulas near the phase transition."""
        rng = np.random.default_rng(seed + 8)
        aggressive = CDCLSolver(restart_base=3, reduce_interval=8, keep_lbd=1)
        plain = CDCLSolver()
        for _ in range(25):
            formula = random_ksat(
                10, 43, 3, seed=int(rng.integers(0, 2**31))
            )
            assert aggressive.solve(formula).status == plain.solve(formula).status
