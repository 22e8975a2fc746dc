"""One verdict rule for the NBL engines, wherever the runtime runs them.

The worker pool (for a job naming an engine, or a default job small enough
to select the exact engine) and the session factory both reach the NBL
engines through the solver registry, so the same NBL query gets the same
verdict class from each: SAT only with a verified model, UNSAT only
from the exact (symbolic) engine, UNKNOWN otherwise.
"""

from __future__ import annotations

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.core.result import AssignmentResult
from repro.incremental import make_session
from repro.runtime import ResultCache, SolveJob, execute_job

#: Satisfiable only with x2 true.
SAT_CLAUSES = [[1, 2], [-1, 2]]
#: Every assignment of x1, x2 falsifies one clause.
UNSAT_CLAUSES = [[1, 2], [-1, 2], [1, -2], [-1, -2]]


def test_unverified_sat_claim_is_unknown_everywhere(monkeypatch):
    """An engine SAT claim whose model fails the formula is never SAT."""

    def wrong_model(self, formula, cube=False):
        return AssignmentResult(
            satisfiable=True,
            assignment=Assignment({1: True, 2: False}),
            verified=False,
        )

    monkeypatch.setattr("repro.core.solver.NBLSATSolver.solve", wrong_model)
    formula = CNFFormula.from_ints(SAT_CLAUSES)

    outcome = execute_job(SolveJob(formula=formula, solver="nbl-sampled"))
    assert outcome.status == "UNKNOWN"
    assert outcome.assignment is None

    default = execute_job(SolveJob(formula=formula, seed=1))
    assert default.winner == "nbl-symbolic"
    assert default.status == "UNKNOWN"
    assert default.assignment is None

    session = make_session("nbl-sampled", base_formula=formula, seed=1)
    result = session.solve()
    assert result.status == "UNKNOWN"
    assert result.assignment is None


def test_sampled_engine_unsat_is_unknown_everywhere():
    """The sampled engine's UNSAT is statistical: UNKNOWN, never cached."""
    formula = CNFFormula.from_ints(UNSAT_CLAUSES)

    outcome = execute_job(
        SolveJob(formula=formula, solver="nbl-sampled", samples=20_000, seed=1)
    )
    assert outcome.status == "UNKNOWN"
    assert outcome.verified is False
    assert outcome.samples_used > 0
    assert ResultCache().put(outcome) is False

    session = make_session(
        "nbl-sampled", base_formula=formula, seed=1, samples=20_000
    )
    assert session.solve().status == "UNKNOWN"


def test_symbolic_unsat_under_assumptions_reports_the_assumptions_as_core():
    outcome = execute_job(
        SolveJob(
            formula=CNFFormula.from_ints(SAT_CLAUSES),
            solver="nbl-symbolic",
            assumptions=(-2,),
        )
    )
    assert outcome.status == "UNSAT"
    assert outcome.verified
    assert outcome.core == (-2,)
