"""Cooperative-timeout coverage: every classical solver degrades gracefully.

A solver handed an instance it cannot finish within its wall-clock budget
must return ``UNKNOWN`` with ``timed_out=True`` — never hang and never
raise — and the result must still carry its :class:`SolverStats` so callers
can see how far the run got. The instances here are pigeonhole formulas
(exponentially hard for resolution-based search, UNSAT so local search
never terminates early) sized per solver so the budget expires mid-search.
"""

from __future__ import annotations

import pytest

from repro.cnf.structured import pigeonhole_formula
from repro.solvers.base import UNKNOWN
from repro.solvers.registry import available_solvers, make_solver

#: Per-solver timeout scenario: constructor kwargs, instance, and budget.
#: Search solvers get a budget that allows real work before expiring;
#: brute force enumerates in one vectorised step, so only its up-front
#: checkpoint can fire — it gets a budget that is already spent on entry.
#: The NBL engines are bounded by their sample budget and likewise check
#: the clock only on entry.
#: The hybrid solver's symbolic coprocessor scores minterm masks per
#: decision, which is exactly the kind of slow checkpoint-free stretch the
#: budget must survive (its inner DPLL owns the checkpoints).
TIMEOUT_SCENARIOS = {
    "dpll": (dict(), pigeonhole_formula(8, 7), 0.05),
    "cdcl": (dict(), pigeonhole_formula(8, 7), 0.05),
    "walksat": (
        dict(max_flips=10_000_000, max_tries=1, seed=1),
        pigeonhole_formula(5, 4),
        0.05,
    ),
    "gsat": (
        dict(max_flips=10_000_000, max_tries=1, seed=1),
        pigeonhole_formula(5, 4),
        0.05,
    ),
    "brute-force": (dict(), pigeonhole_formula(4, 3), 1e-9),
    "hybrid": (dict(), pigeonhole_formula(4, 3), 1e-9),
    "nbl-symbolic": (dict(), pigeonhole_formula(4, 3), 1e-9),
    "nbl-sampled": (dict(samples=1_000), pigeonhole_formula(4, 3), 1e-9),
}

#: Scenarios whose budget permits measurable work before expiring.
WORKING_SCENARIOS = ("dpll", "cdcl", "walksat", "gsat")


def test_every_registry_solver_has_a_timeout_scenario():
    """New solvers must be added to the timeout coverage table."""
    assert sorted(TIMEOUT_SCENARIOS) == available_solvers()


@pytest.mark.parametrize("name", sorted(TIMEOUT_SCENARIOS))
def test_timeout_returns_unknown_not_exception(name):
    kwargs, formula, budget = TIMEOUT_SCENARIOS[name]
    solver = make_solver(name, **kwargs)
    result = solver.solve(formula, timeout=budget)
    assert result.status == UNKNOWN
    assert result.timed_out is True
    assert result.assignment is None
    assert result.solver_name == solver.name
    # The stats object must survive the timeout path with the elapsed time
    # recorded (the run did happen, however briefly).
    assert result.stats is not None
    assert result.stats.elapsed_seconds > 0.0


@pytest.mark.parametrize("name", WORKING_SCENARIOS)
def test_timed_out_stats_show_partial_work(name):
    kwargs, formula, budget = TIMEOUT_SCENARIOS[name]
    result = make_solver(name, **kwargs).solve(formula, timeout=budget)
    assert result.timed_out is True
    stats = result.stats
    work = (
        stats.decisions
        + stats.propagations
        + stats.conflicts
        + stats.flips
        + stats.evaluations
    )
    assert work > 0, f"{name} timed out without recording any work"


@pytest.mark.parametrize("name", WORKING_SCENARIOS)
def test_timed_out_elapsed_tracks_wall_clock(name):
    """Regression: ``elapsed_seconds`` on the timeout path must measure the
    actual run, not default to 0.0 or the full budget. The cooperative
    checkpoints may overshoot by a loop iteration, so only loose bounds
    hold: at least (almost) the budget, and well under a hard cap."""
    kwargs, formula, budget = TIMEOUT_SCENARIOS[name]
    result = make_solver(name, **kwargs).solve(formula, timeout=budget)
    assert result.timed_out is True
    assert result.stats.elapsed_seconds >= budget * 0.5
    assert result.stats.elapsed_seconds < budget + 30.0


def test_timed_out_elapsed_matches_trace_span():
    """With tracing on, the solve span's duration and the stats' elapsed
    time must describe the same run (elapsed is stamped inside the span)."""
    from repro import telemetry

    kwargs, formula, budget = TIMEOUT_SCENARIOS["cdcl"]
    tracer = telemetry.start_tracing()
    try:
        result = make_solver("cdcl", **kwargs).solve(formula, timeout=budget)
    finally:
        telemetry.stop_tracing()
    assert result.timed_out is True
    (root,) = tracer.finished
    assert root.attributes["timed_out"] is True
    assert root.attributes["elapsed_seconds"] == result.stats.elapsed_seconds
    assert root.duration_seconds >= result.stats.elapsed_seconds


def test_incremental_solve_stamps_elapsed_on_timeout():
    """Regression: ``CDCLSolver.solve_incremental`` stamps elapsed time on
    the timeout path too (it bypasses ``SATSolver.solve`` entirely)."""
    from repro.solvers.cdcl import CDCLSolver

    formula = pigeonhole_formula(8, 7)
    solver = CDCLSolver()
    solver.begin_incremental(formula.num_variables)
    for clause in formula:
        solver.attach_clause(clause)
    result = solver.solve_incremental(timeout=0.05)
    assert result.status == UNKNOWN
    assert result.timed_out is True
    assert result.stats.elapsed_seconds >= 0.025


def test_incremental_session_timeout():
    """The CDCL session path reports timeouts the same way, and the
    session stays usable for subsequent (easier) queries."""
    from repro.incremental import make_session

    session = make_session("cdcl", base_formula=pigeonhole_formula(8, 7))
    timed_out = session.solve(timeout=0.05)
    assert timed_out.status == UNKNOWN
    assert timed_out.timed_out is True
    # A later query with a satisfying-by-construction assumption set must
    # still work on the same (post-timeout) solver state.
    easy = make_session("cdcl", base_formula=pigeonhole_formula(3, 3))
    assert easy.solve().is_sat


def test_timeout_mid_search_leaves_valid_truncated_proof():
    """Regression: a CDCL run killed mid-conflict must leave a proof file
    that parses cleanly — whole lines only, never a torn last line — and
    that is flagged ``incomplete`` so a checker rejects rather than
    mis-verifies it."""
    from repro.proofs import ProofLog, check_proof, parse_proof

    log = ProofLog()
    result = make_solver("cdcl").solve(
        pigeonhole_formula(8, 7), timeout=0.05, proof=log
    )
    assert result.timed_out is True
    assert log.incomplete is True
    # Every recorded line must parse: a torn line raises ProofError here.
    steps, incomplete = parse_proof(log.text())
    assert incomplete is True
    assert len(steps) == log.additions + log.deletions
    # The truncated derivation never verifies as a refutation, and the
    # rejection reason names the incomplete flag.
    verdict = check_proof(pigeonhole_formula(8, 7), log.text())
    assert not verdict
    assert "incomplete" in verdict.reason


def test_timeout_file_backed_proof_has_no_torn_line(tmp_path):
    """The same guarantee through a real file sink (one write per line)."""
    from repro.proofs import parse_proof_file

    path = tmp_path / "timeout.drat"
    result = make_solver("cdcl").solve(
        pigeonhole_formula(8, 7), timeout=0.05, proof=str(path)
    )
    assert result.timed_out is True
    text = path.read_text()
    assert text == "" or text.endswith("\n")
    steps, incomplete = parse_proof_file(path)
    assert incomplete is True


@pytest.mark.slow
@pytest.mark.parametrize("name", WORKING_SCENARIOS)
def test_timeout_with_generous_budget_still_expires(name):
    """Same scenarios at a 10x budget — the instances are hard enough that
    the verdict is still a clean timeout, not a hang or a crash."""
    kwargs, formula, budget = TIMEOUT_SCENARIOS[name]
    result = make_solver(name, **kwargs).solve(formula, timeout=budget * 10)
    assert result.status == UNKNOWN
    assert result.timed_out is True
