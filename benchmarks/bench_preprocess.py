"""Benchmark the preprocessing pipeline: reduction ratios and CDCL speedup.

Run with::

    pytest benchmarks/bench_preprocess.py --benchmark-only -s

Two questions, one per benchmark:

* **Reduction** — how much of each structured family does the pipeline
  (units, pure literals, subsumption/strengthening, blocked clauses,
  bounded variable elimination) remove? Cycle colorings and all-equal
  chains collapse entirely (decided without search); Mycielski coloring
  encodings lose over a third of their clauses while keeping a residual
  core; pigeonhole instances barely budge (their hardness is not
  syntactic redundancy). The acceptance criterion is a ≥30% clause
  reduction on at least one family.
* **Decisions** — over a mixed workload, does solving the residual of
  :func:`~repro.preprocess.preprocess_formula` make CDCL search less?
  Both routes must agree on every verdict and the preprocessed route must
  finish the workload with strictly fewer total decisions (instances the
  pipeline decides outright contribute zero).

Everything here is deterministic — fixed seeds, deterministic CDCL — so
the asserted inequalities are stable, not flaky thresholds.
"""

from __future__ import annotations

import time

import pytest

from repro.cnf.generators import random_ksat
from repro.cnf.structured import (
    all_equal_formula,
    cycle_graph_edges,
    graph_coloring_formula,
    pigeonhole_formula,
)
from repro.preprocess import Preprocessor, preprocess_formula
from repro.solvers.cdcl import CDCLSolver


def _mycielski(edges, num_vertices):
    """Mycielski construction: +1 to the chromatic number, triangle-free."""
    grown = list(edges)
    for u, v in edges:
        grown += [(u, num_vertices + v), (v, num_vertices + u)]
    grown += [(num_vertices + i, 2 * num_vertices) for i in range(num_vertices)]
    return grown, 2 * num_vertices + 1


def _mycielski_family():
    """Coloring encodings of C5 Mycielskified once (χ=4) and twice (χ=5)."""
    edges, n = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5
    edges, n = _mycielski(edges, n)
    grotzsch = [
        graph_coloring_formula(edges, n, 3),  # UNSAT
        graph_coloring_formula(edges, n, 4),  # SAT
    ]
    edges2, n2 = _mycielski(edges, n)
    return grotzsch + [
        graph_coloring_formula(edges2, n2, 4),  # UNSAT, the hard one
        graph_coloring_formula(edges2, n2, 5),  # SAT
    ]


#: label -> list of formulas; every family is deterministic.
FAMILIES = {
    "coloring-cycle": [
        graph_coloring_formula(cycle_graph_edges(n), n, 3) for n in (9, 15, 21)
    ],
    "coloring-mycielski": _mycielski_family(),
    "all-equal": [all_equal_formula(n) for n in (20, 30)],
    "pigeonhole": [pigeonhole_formula(n + 1, n) for n in (5, 6, 7)],
    "random-3sat": [random_ksat(60, 180, 3, seed=s) for s in (42, 43, 44)],
}


def _reduction_table():
    table = {}
    for family, formulas in FAMILIES.items():
        preprocessor = Preprocessor()
        clauses = sum(f.num_clauses for f in formulas)
        variables = sum(f.num_variables for f in formulas)
        reductions = [preprocessor.preprocess(f) for f in formulas]
        table[family] = {
            "instances": len(formulas),
            "clauses": clauses,
            "reduced_clauses": sum(r.formula.num_clauses for r in reductions),
            "variables": variables,
            "reduced_variables": sum(r.formula.num_variables for r in reductions),
            "decided": sum(r.decided for r in reductions),
            "clause_reduction": 1.0
            - sum(r.formula.num_clauses for r in reductions) / clauses,
        }
    return table


def test_preprocess_reduction(run_once, benchmark):
    table = run_once(_reduction_table)
    benchmark.extra_info["families"] = table
    print()
    for family, row in table.items():
        print(
            f"{family:20s} clauses {row['clauses']:5d} -> "
            f"{row['reduced_clauses']:5d} ({row['clause_reduction']:5.0%})  "
            f"variables {row['variables']:4d} -> {row['reduced_variables']:4d}  "
            f"decided outright {row['decided']}/{row['instances']}"
        )
    # Acceptance criterion: ≥30% clause reduction on a structured family.
    best = max(row["clause_reduction"] for row in table.values())
    assert best >= 0.30, f"best family clause reduction only {best:.0%}"
    assert table["coloring-mycielski"]["clause_reduction"] >= 0.30
    # The reduction is not an artifact of instances that simply vanish:
    # the Mycielski encodings all keep a residual core to search.
    assert table["coloring-mycielski"]["decided"] == 0


def _decision_workload():
    # One list, mixed verdicts: collapsing families contribute zero
    # decisions on the preprocessed route, the Mycielski/pigeonhole cores
    # shrink, and the sparse random instances lose their easy margins.
    workload = (
        FAMILIES["coloring-cycle"]
        + FAMILIES["coloring-mycielski"]
        + FAMILIES["all-equal"]
        + FAMILIES["pigeonhole"]
        + FAMILIES["random-3sat"]
    )
    solver = CDCLSolver()

    direct_started = time.perf_counter()
    direct = [solver.solve(f) for f in workload]
    direct_seconds = time.perf_counter() - direct_started

    # (status, decisions) per instance; a verdict the pipeline reaches on
    # its own costs no search.
    hooked = []
    hooked_started = time.perf_counter()
    for formula in workload:
        reduction = preprocess_formula(formula)
        if reduction.decided:
            hooked.append((reduction.status, 0))
        else:
            result = solver.solve(reduction.formula)
            hooked.append((result.status, result.stats.decisions))
    hooked_seconds = time.perf_counter() - hooked_started

    return {
        "workload": len(workload),
        "direct": [r.status for r in direct],
        "hooked": [status for status, _ in hooked],
        "direct_decisions": sum(r.stats.decisions for r in direct),
        "hooked_decisions": sum(decisions for _, decisions in hooked),
        "direct_seconds": direct_seconds,
        "hooked_seconds": hooked_seconds,
    }


def test_preprocess_decision_speedup(run_once, benchmark):
    run = run_once(_decision_workload)
    benchmark.extra_info["direct_decisions"] = run["direct_decisions"]
    benchmark.extra_info["preprocessed_decisions"] = run["hooked_decisions"]
    print()
    print(
        f"{run['workload']} instances: direct {run['direct_decisions']} "
        f"decisions / {run['direct_seconds']:.3f}s vs preprocessed "
        f"{run['hooked_decisions']} decisions / {run['hooked_seconds']:.3f}s"
    )
    # Both routes agree on every verdict ...
    assert run["direct"] == run["hooked"]
    assert set(run["direct"]) == {"SAT", "UNSAT"}
    # ... and preprocessing strictly reduces total CDCL decisions (the
    # acceptance criterion).
    assert run["hooked_decisions"] < run["direct_decisions"]
