"""Table A1 — Algorithm 1 decisions versus exact ground truth."""

from __future__ import annotations

from typing import Sequence

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import planted_ksat, random_ksat
from repro.cnf.paper_instances import paper_instances
from repro.cnf.structured import (
    all_equal_formula,
    cycle_graph_edges,
    graph_coloring_formula,
    parity_chain_formula,
    pigeonhole_formula,
)
from repro.core.config import NBLConfig
from repro.core.solver import NBLSATSolver
from repro.experiments.recording import ExperimentRecord
from repro.noise.telegraph import BipolarCarrier
from repro.solvers.brute_force import BruteForceSolver
from repro.utils.rng import SeedLike


def default_validation_suite(seed: SeedLike = 0) -> list[tuple[str, CNFFormula]]:
    """The named instance suite used by the checker/assignment validations."""
    suite: list[tuple[str, CNFFormula]] = list(paper_instances().items())
    suite.append(("php_3_2 (UNSAT)", pigeonhole_formula(3, 2)))
    suite.append(("php_2_2 (SAT)", pigeonhole_formula(2, 2)))
    suite.append(("parity_3", parity_chain_formula(3)))
    suite.append(("all_equal_4", all_equal_formula(4)))
    suite.append(
        ("color_c3_k2 (UNSAT)", graph_coloring_formula(cycle_graph_edges(3), 3, 2))
    )
    planted, _ = planted_ksat(4, 8, k=3, seed=seed)
    suite.append(("planted_4_8", planted))
    suite.append(("random_3_9", random_ksat(3, 9, k=3, seed=seed)))
    return suite


#: Sampled checks are only attempted when n·m stays below this product: the
#: Section III-F analysis shows the required sample budget explodes with
#: n·m, so beyond it a fixed small budget would return coin-flip decisions.
MAX_SAMPLED_NM = 20


def run_checker_validation(
    instances: Sequence[tuple[str, CNFFormula]] | None = None,
    num_samples: int = 60_000,
    seed: SeedLike = 0,
    max_sampled_nm: int = MAX_SAMPLED_NM,
) -> ExperimentRecord:
    """Validate the symbolic and sampled checkers against brute force.

    The sampled checker uses bipolar (RTW-style) carriers so the comparison
    stays meaningful at moderate ``n·m``; instances whose ``n·m`` exceeds
    ``max_sampled_nm`` are checked symbolically only (the sampled column
    records "skipped"), which is exactly the scalability limitation the
    paper's Section III-F predicts.
    """
    if instances is None:
        instances = default_validation_suite(seed)
    oracle = BruteForceSolver()
    record = ExperimentRecord(
        experiment_id="table_a1",
        title="Table A1 — Algorithm 1 decisions vs. exhaustive ground truth",
        headers=[
            "instance",
            "n",
            "m",
            "ground truth",
            "symbolic NBL",
            "sampled NBL",
            "sampled samples",
            "agree",
        ],
    )
    config = NBLConfig(
        carrier=BipolarCarrier(),
        max_samples=num_samples,
        block_size=min(20_000, num_samples),
        min_samples=min(10_000, num_samples),
        seed=seed,
    )
    exact = NBLSATSolver("symbolic")
    sampler = NBLSATSolver("sampled", config)
    for name, formula in instances:
        truth = oracle.solve(formula)
        symbolic = exact.check(formula)
        truth_sat = truth.is_sat
        agree = symbolic.satisfiable == truth_sat
        nm = formula.num_variables * formula.num_clauses
        if nm <= max_sampled_nm:
            sampled = sampler.check(formula)
            sampled_verdict = "SAT" if sampled.satisfiable else "UNSAT"
            sampled_samples: object = sampled.samples_used
            agree = agree and (sampled.satisfiable == truth_sat)
        else:
            sampled_verdict = "skipped (n·m too large)"
            sampled_samples = "-"
        record.add_row(
            name,
            formula.num_variables,
            formula.num_clauses,
            "SAT" if truth_sat else "UNSAT",
            "SAT" if symbolic.satisfiable else "UNSAT",
            sampled_verdict,
            sampled_samples,
            agree,
        )
    record.add_note(
        "Shape check: the symbolic engine must agree with ground truth on every "
        "row (it is exact); sampled-engine disagreements, if any, are finite-"
        "sample errors whose rate the SNR model predicts."
    )
    record.add_note(
        f"Sampled checks are skipped when n·m > {max_sampled_nm}: Section III-F "
        "puts the required sample budget beyond a laptop-scale simulation there."
    )
    return record
