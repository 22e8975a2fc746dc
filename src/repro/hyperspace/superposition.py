"""Sampled superposition builders over one clause's private noise space.

These functions evaluate, on a block of carrier samples, the signals the
paper constructs per clause:

* :func:`clause_full_superposition` — Equation 1's
  ``T = Π_i (N^j_{x_i} + N^j_{~x_i})``, the superposition of all 2^n
  minterms, built from clause ``j``'s sources;
* :func:`clause_cube_subspace` — the bound variant ``T^j_cube`` of Example 4
  (any subset of variables bound to literal values);
* :func:`clause_literal_subspace` — the single-literal binding ``T^j_v``
  used when translating a CNF clause into Σ_N (Section III-C);
* :func:`minterm_noise_product` — the noise product of one fully specified
  minterm (used by tests to probe orthogonality).

All functions take a sample block of shape ``(m, n, 2, B)`` produced by
:class:`repro.noise.bank.NoiseBank` and return a vector of ``B`` samples.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.exceptions import HyperspaceError
from repro.noise.bank import NEGATIVE, POSITIVE


def _validate_block(block: np.ndarray) -> tuple[int, int, int]:
    arr = np.asarray(block)
    if arr.ndim != 4 or arr.shape[2] != 2:
        raise HyperspaceError(
            f"sample block must have shape (m, n, 2, B), got {arr.shape}"
        )
    return arr.shape[0], arr.shape[1], arr.shape[3]


def _validate_clause_index(clause: int, num_clauses: int) -> int:
    if not 1 <= clause <= num_clauses:
        raise HyperspaceError(
            f"clause index {clause} out of range 1..{num_clauses}"
        )
    return clause - 1


def _pair_terms(
    block: np.ndarray, clause_row: int, bindings: Mapping[int, bool]
) -> np.ndarray:
    """Per-variable factors ``(N_x + N_~x)`` with bound variables replaced.

    Returns an array of shape ``(n, B)`` whose product along axis 0 is the
    requested superposition.
    """
    num_variables = block.shape[1]
    positive = block[clause_row, :, POSITIVE, :]
    negative = block[clause_row, :, NEGATIVE, :]
    # `positive + negative` allocates a fresh array, so overwriting bound rows
    # below never touches the caller's sample block.
    terms = positive + negative
    for variable, value in bindings.items():
        if not 1 <= variable <= num_variables:
            raise HyperspaceError(
                f"bound variable x{variable} out of range 1..{num_variables}"
            )
        row = variable - 1
        terms[row] = positive[row] if value else negative[row]
    return terms


def clause_full_superposition(block: np.ndarray, clause: int) -> np.ndarray:
    """Equation 1 over clause ``clause``'s sources: all 2^n minterms at once."""
    num_clauses, _, _ = _validate_block(block)
    row = _validate_clause_index(clause, num_clauses)
    terms = _pair_terms(block, row, {})
    return np.prod(terms, axis=0)


def clause_cube_subspace(
    block: np.ndarray, clause: int, bindings: Mapping[int, bool]
) -> np.ndarray:
    """Cube subspace ``T^clause_cube``: variables in ``bindings`` are bound.

    With an empty ``bindings`` this equals :func:`clause_full_superposition`;
    binding every variable yields a single minterm's noise product.
    """
    num_clauses, _, _ = _validate_block(block)
    row = _validate_clause_index(clause, num_clauses)
    terms = _pair_terms(block, row, dict(bindings))
    return np.prod(terms, axis=0)


def clause_literal_subspace(
    block: np.ndarray, clause: int, literal: int
) -> np.ndarray:
    """``T^clause_v`` for one DIMACS literal ``v`` — the building block of Σ_N."""
    return clause_cube_subspace(block, clause, {abs(literal): literal > 0})


def minterm_noise_product(
    block: np.ndarray, clause: int, minterm_index: int
) -> np.ndarray:
    """Noise product of one fully specified minterm over clause ``clause``'s sources."""
    num_clauses, num_variables, _ = _validate_block(block)
    row = _validate_clause_index(clause, num_clauses)
    if not 0 <= minterm_index < (1 << num_variables):
        raise HyperspaceError(
            f"minterm index {minterm_index} out of range for {num_variables} variables"
        )
    bindings = {
        variable: bool((minterm_index >> (variable - 1)) & 1)
        for variable in range(1, num_variables + 1)
    }
    terms = _pair_terms(block, row, bindings)
    return np.prod(terms, axis=0)
