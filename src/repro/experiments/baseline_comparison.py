"""Table B1 — NBL-SAT engines next to classical complete/stochastic solvers."""

from __future__ import annotations

from typing import Sequence

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.cnf.structured import pigeonhole_formula
from repro.core.solver import NBLSATSolver
from repro.experiments.recording import ExperimentRecord
from repro.solvers.registry import make_solver
from repro.utils.rng import SeedLike

#: Solvers included in the comparison, in reporting order.
BASELINE_SOLVERS = ("brute-force", "dpll", "cdcl", "walksat", "gsat")


def default_comparison_suite(seed: SeedLike = 0) -> list[tuple[str, CNFFormula]]:
    """Instance families contrasted across solvers."""
    suite: list[tuple[str, CNFFormula]] = [
        ("random_10_35", random_ksat(10, 35, 3, seed=hash((seed, 0)) & 0x7FFFFFFF)),
        ("random_10_43 (near PT)", random_ksat(10, 43, 3, seed=hash((seed, 1)) & 0x7FFFFFFF)),
        ("random_10_55", random_ksat(10, 55, 3, seed=hash((seed, 2)) & 0x7FFFFFFF)),
        ("php_4_3 (UNSAT)", pigeonhole_formula(4, 3)),
        ("php_3_3 (SAT)", pigeonhole_formula(3, 3)),
    ]
    return suite


def run_baseline_comparison(
    instances: Sequence[tuple[str, CNFFormula]] | None = None,
    seed: SeedLike = 0,
) -> ExperimentRecord:
    """Compare solver verdicts and work counters on a shared instance suite.

    The NBL column uses the symbolic engine (the idealised device — a single
    check operation per instance); classical solvers report their own work
    units (decisions for DPLL/CDCL, flips for local search). The point of
    the table is decision agreement and the *kind* of work each approach
    performs, not wall-clock superiority.
    """
    if instances is None:
        instances = default_comparison_suite(seed)
    record = ExperimentRecord(
        experiment_id="table_b1",
        title="Table B1 — NBL-SAT vs. classical baseline solvers",
        headers=[
            "instance",
            "n",
            "m",
            "NBL (symbolic)",
            "brute-force",
            "dpll (decisions)",
            "cdcl (conflicts)",
            "walksat",
            "gsat",
            "all complete agree",
        ],
    )
    exact = NBLSATSolver("symbolic")
    for name, formula in instances:
        nbl = exact.check(formula)
        nbl_verdict = "SAT" if nbl.satisfiable else "UNSAT"
        verdicts: dict[str, str] = {}
        details: dict[str, str] = {}
        for solver_name in BASELINE_SOLVERS:
            kwargs = {"seed": hash((seed, solver_name)) & 0x7FFFFFFF} if solver_name in ("walksat", "gsat") else {}
            solver = make_solver(solver_name, **kwargs)
            result = solver.solve(formula)
            verdicts[solver_name] = result.status
            if solver_name == "dpll":
                details[solver_name] = f"{result.status} ({result.stats.decisions})"
            elif solver_name == "cdcl":
                details[solver_name] = f"{result.status} ({result.stats.conflicts})"
            else:
                details[solver_name] = result.status
        complete_agree = (
            verdicts["brute-force"]
            == verdicts["dpll"]
            == verdicts["cdcl"]
            == nbl_verdict
        )
        record.add_row(
            name,
            formula.num_variables,
            formula.num_clauses,
            nbl_verdict,
            verdicts["brute-force"],
            details["dpll"],
            details["cdcl"],
            verdicts["walksat"],
            verdicts["gsat"],
            complete_agree,
        )
    record.add_note(
        "Shape check: all complete approaches (NBL symbolic, brute force, DPLL, "
        "CDCL) must agree on every instance; the incomplete local-search "
        "solvers may return UNKNOWN on unsatisfiable or hard instances."
    )
    record.add_note(
        "The NBL engine answers with a single check operation per instance "
        "(Algorithm 1); classical solvers report their per-instance search work."
    )
    return record
