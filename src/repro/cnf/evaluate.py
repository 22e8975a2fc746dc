"""Exhaustive evaluation utilities: truth tables, model counting.

These routines enumerate the full 2^n assignment space with vectorised NumPy
bit arithmetic, so they are practical up to roughly ``n = 24``. They provide
ground truth for the NBL-SAT engines (which the paper validates only on tiny
instances). They share no code with the exact/symbolic engine in
:mod:`repro.core.symbolic`, which works on ``int`` bitsets, so they serve as
its independent oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.exceptions import CNFError

#: Enumerating more variables than this would allocate > 2^26 bytes per mask.
MAX_ENUMERATION_VARIABLES = 26


def evaluate_formula(formula: CNFFormula, assignment: Mapping[int, bool]) -> bool:
    """Evaluate a formula under a complete assignment."""
    return formula.evaluate(assignment)


def _check_enumerable(num_variables: int) -> None:
    if num_variables > MAX_ENUMERATION_VARIABLES:
        raise CNFError(
            f"exhaustive enumeration over {num_variables} variables is not "
            f"supported (limit {MAX_ENUMERATION_VARIABLES})"
        )


def clause_minterm_mask(clause: Iterable[int], num_variables: int) -> np.ndarray:
    """Boolean vector of length ``2^num_variables``: which minterms satisfy ``clause``.

    Minterm index bit ``i`` holds the value of variable ``i + 1`` (the
    convention shared with :class:`repro.cnf.assignment.Assignment` and
    :mod:`repro.hyperspace`).
    """
    _check_enumerable(num_variables)
    size = 1 << num_variables
    indices = np.arange(size, dtype=np.uint32)
    satisfied = np.zeros(size, dtype=bool)
    for lit in clause:
        bit = (indices >> np.uint32(abs(lit) - 1)) & np.uint32(1)
        satisfied |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
    return satisfied


def satisfying_minterm_mask(formula: CNFFormula, num_variables: int | None = None) -> np.ndarray:
    """Boolean vector over all minterms: which satisfy the whole formula."""
    n = formula.num_variables if num_variables is None else num_variables
    _check_enumerable(n)
    mask = np.ones(1 << n, dtype=bool)
    for clause in formula:
        mask &= clause_minterm_mask(clause, n)
    return mask


def count_models(formula: CNFFormula) -> int:
    """Exact model count of ``formula`` (exhaustive, small ``n`` only)."""
    if formula.num_variables == 0:
        return 0 if formula.has_empty_clause() else 1
    return int(satisfying_minterm_mask(formula).sum())


def enumerate_models(formula: CNFFormula) -> Iterator[Assignment]:
    """Yield every satisfying assignment of ``formula`` in minterm order."""
    mask = satisfying_minterm_mask(formula)
    for index in np.flatnonzero(mask):
        yield Assignment.from_minterm_index(int(index), formula.num_variables)


def first_model(formula: CNFFormula) -> Assignment | None:
    """The lexicographically first satisfying assignment, or ``None``."""
    for model in enumerate_models(formula):
        return model
    return None
