"""Random CNF instance generators.

The paper's evaluation uses only two hand-written 2-variable instances; the
scaling and ablation experiments in this reproduction need families of
instances whose satisfiability status and difficulty are controllable. These
generators provide:

* uniform random k-SAT (:func:`random_ksat`),
* *planted* k-SAT instances guaranteed satisfiable (:func:`planted_ksat`),
* a sweep across clause/variable ratios around the 3-SAT phase transition
  (:func:`phase_transition_family`).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula, evaluate_clause
from repro.exceptions import CNFError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

#: Empirical location of the random 3-SAT satisfiability phase transition.
PHASE_TRANSITION_RATIO_3SAT = 4.267


def _random_clause(
    num_variables: int,
    k: int,
    rng: np.random.Generator,
    forbid_satisfying: Optional[Assignment] = None,
) -> list[int]:
    """Draw one k-clause over distinct variables with random polarities.

    When ``forbid_satisfying`` is given, the clause is redrawn (polarity-wise)
    until it is satisfied by that assignment — this is the planted-instance
    construction, which keeps the planted model a model of every clause.
    """
    variables = rng.choice(num_variables, size=k, replace=False) + 1
    while True:
        polarities = rng.integers(0, 2, size=k).astype(bool)
        clause = [int(v) if p else -int(v) for v, p in zip(variables, polarities)]
        if forbid_satisfying is None:
            return clause
        if evaluate_clause(clause, forbid_satisfying):
            return clause


def random_ksat(
    num_variables: int,
    num_clauses: int,
    k: int = 3,
    seed: SeedLike = None,
) -> CNFFormula:
    """Uniform random k-SAT: ``num_clauses`` clauses of ``k`` distinct variables.

    Clauses may repeat (as in the standard fixed-clause-length model), but a
    single clause never repeats a variable, so tautological clauses cannot
    occur.
    """
    check_positive_int(num_variables, "num_variables")
    check_positive_int(num_clauses, "num_clauses")
    check_positive_int(k, "k")
    if k > num_variables:
        raise CNFError(f"k={k} exceeds num_variables={num_variables}")
    rng = as_generator(seed)
    clauses = [_random_clause(num_variables, k, rng) for _ in range(num_clauses)]
    return CNFFormula(clauses, num_variables)


def planted_ksat(
    num_variables: int,
    num_clauses: int,
    k: int = 3,
    seed: SeedLike = None,
) -> tuple[CNFFormula, Assignment]:
    """Random k-SAT with a *planted* satisfying assignment.

    Returns the formula together with the planted model (every clause is
    satisfied by it by construction), which the validation experiments use as
    ground truth for Algorithm 2.
    """
    check_positive_int(num_variables, "num_variables")
    check_positive_int(num_clauses, "num_clauses")
    check_positive_int(k, "k")
    if k > num_variables:
        raise CNFError(f"k={k} exceeds num_variables={num_variables}")
    rng = as_generator(seed)
    planted_values = rng.integers(0, 2, size=num_variables).astype(bool)
    planted = Assignment(
        {var: bool(planted_values[var - 1]) for var in range(1, num_variables + 1)}
    )
    clauses = [
        _random_clause(num_variables, k, rng, forbid_satisfying=planted)
        for _ in range(num_clauses)
    ]
    return CNFFormula(clauses, num_variables), planted


def phase_transition_family(
    num_variables: int,
    ratios: Sequence[float] = (3.0, 3.5, 4.0, PHASE_TRANSITION_RATIO_3SAT, 4.5, 5.0),
    k: int = 3,
    seed: SeedLike = None,
) -> Iterator[tuple[float, CNFFormula]]:
    """Yield ``(ratio, formula)`` pairs sweeping the clause/variable ratio.

    Instances below the phase transition are almost surely satisfiable;
    instances above are almost surely unsatisfiable. The NBL hybrid and
    baseline comparison experiments use this family.
    """
    check_positive_int(num_variables, "num_variables")
    rng = as_generator(seed)
    for ratio in ratios:
        if ratio <= 0:
            raise CNFError(f"clause/variable ratio must be positive, got {ratio}")
        num_clauses = max(1, int(round(ratio * num_variables)))
        yield float(ratio), random_ksat(num_variables, num_clauses, k, rng)
