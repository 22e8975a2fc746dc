"""Construction of the NBL-SAT instance ``Σ_N`` (paper Section III-C).

``Σ_N`` replaces every clause ``c_j`` by the noise vector ``Z_j``: the
additive superposition of all minterms (over clause ``j``'s private basis
sources) that satisfy ``c_j``, with **each satisfying minterm appearing
exactly once** — this is how the paper expands its examples (Example 6 lists
the three distinct satisfying minterms of ``(x1 + x2)``).

Note that the naive reading "replace every literal ``v`` by ``T^j_v`` and add
them" would count a minterm once per literal it satisfies, inflating the mean
of ``S_N`` by the literal multiplicities. We therefore build ``Z_j`` by
inclusion-exclusion in its simplest form:

    Z_j = T^j  −  T^j_{all literals of c_j falsified}

i.e. the full superposition of clause ``j``'s hyperspace minus the cube in
which every literal of the clause is false. The subtraction needs one extra
cube product and one adder per clause in hardware, keeps every satisfying
minterm with coefficient one, and leaves unsatisfying minterms absent — so
the mean of ``τ_N · Σ_N`` is exactly ``K · E[x²]^{n·m}``.

Two evaluators are provided:

* :func:`sigma_samples` — the sampled signal on a carrier block, used by the
  Monte-Carlo engine; the per-clause builder
  :func:`clause_superposition_samples` is its readable reference;
* :func:`clause_minterm_sets` / :func:`satisfying_minterms` — the exact
  minterm-set view used by the symbolic engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.cnf.formula import CNFFormula
from repro.exceptions import EngineError
from repro.hyperspace.minterm import MintermSet, literal_masks
from repro.hyperspace.superposition import (
    clause_cube_subspace,
    clause_full_superposition,
)
from repro.noise.bank import NEGATIVE, POSITIVE
from repro.utils.workspace import Workspace


def falsifying_cube_bindings(clause) -> dict[int, bool] | None:
    """Bindings that falsify every literal of ``clause``.

    Returns ``None`` when the clause is a tautology (contains a literal and
    its negation): no assignment falsifies it, so the falsifying cube is
    empty and nothing has to be subtracted from the full superposition.
    """
    bindings: dict[int, bool] = {}
    for lit in clause:
        required = lit < 0
        if bindings.setdefault(abs(lit), required) != required:
            return None
    return bindings


def clause_superposition_samples(
    block: np.ndarray, clause_index: int, formula: CNFFormula
) -> np.ndarray:
    """Sampled ``Z_j``: superposition of the minterms satisfying clause ``c_j``.

    ``clause_index`` is 1-based, matching the paper's ``c_1 .. c_m``. Each
    satisfying minterm appears exactly once (see the module docstring).
    """
    clause = formula.clauses[clause_index - 1]
    if not clause:
        # An empty clause has no satisfying minterm: its superposition is the
        # zero signal, which correctly forces Σ_N (and hence S_N) to zero.
        return np.zeros(block.shape[-1], dtype=np.float64)
    full = clause_full_superposition(block, clause_index)
    bindings = falsifying_cube_bindings(clause)
    if bindings is None:
        return full
    return full - clause_cube_subspace(block, clause_index, bindings)


@dataclass(frozen=True)
class SigmaPlan:
    """``Σ_N`` of one formula compiled to the index rows the evaluator uses.

    Attributes
    ----------
    num_clauses, num_variables:
        The formula's ``m`` and ``n``.
    cube_rows:
        One ``(clause, variable, polarity)`` triple (0-based rows, polarity
        :data:`~repro.noise.bank.POSITIVE` or
        :data:`~repro.noise.bank.NEGATIVE`) per variable a clause's
        falsifying cube binds: on that row the cube takes the single source
        ``N^j_{x_v}`` or ``N^j_{~x_v}`` instead of the pair sum.
    tautologies:
        Indices of tautological clauses: their cube is empty, so nothing is
        subtracted from their full superposition.
    has_empty_clause:
        Whether some clause is empty (``Z_j = 0`` forces ``Σ_N = 0``).
    """

    num_clauses: int
    num_variables: int
    cube_rows: tuple[tuple[int, int, int], ...]
    tautologies: np.ndarray
    has_empty_clause: bool

    @classmethod
    def from_formula(cls, formula: CNFFormula) -> "SigmaPlan":
        """Compile ``formula`` (one pass over its literals)."""
        cube_rows = []
        tautologies = []
        for row, clause in enumerate(formula.clauses):
            bindings = falsifying_cube_bindings(clause)
            if bindings is None:
                tautologies.append(row)
                continue
            for variable, value in bindings.items():
                cube_rows.append((row, variable - 1, POSITIVE if value else NEGATIVE))
        return cls(
            num_clauses=formula.num_clauses,
            num_variables=formula.num_variables,
            cube_rows=tuple(cube_rows),
            tautologies=np.asarray(tautologies, dtype=np.intp),
            has_empty_clause=formula.has_empty_clause(),
        )


def sigma_samples(
    block: np.ndarray,
    formula: Union[CNFFormula, SigmaPlan],
    out: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Sampled ``Σ_N = Π_j Z_j`` for the whole formula on one carrier block.

    ``formula`` is the instance or its compiled :class:`SigmaPlan` (which
    the engines build once and reuse for every tile). Every clause is
    evaluated at once: ``Z_j = T^j − T^j_cube`` with ``T^j`` the product of
    the pair sums ``N^j_x + N^j_~x`` and the cube taking the single
    falsifying source on the clause's rows. ``out`` and ``workspace`` are
    optional result and scratch buffers, as in
    :func:`repro.hyperspace.reference.reference_hyperspace`.
    """
    plan = formula if isinstance(formula, SigmaPlan) else SigmaPlan.from_formula(formula)
    arr = np.asarray(block)
    if arr.ndim != 4 or arr.shape[2] != 2:
        raise EngineError(f"sample block must have shape (m, n, 2, B), got {arr.shape}")
    if arr.shape[0] != plan.num_clauses:
        raise EngineError(
            f"block has {arr.shape[0]} clause rows but formula has "
            f"{plan.num_clauses} clauses"
        )
    if arr.shape[1] != plan.num_variables:
        raise EngineError(
            f"block has {arr.shape[1]} variable rows but formula has "
            f"{plan.num_variables} variables"
        )
    m, n, _, size = arr.shape
    if out is None:
        out = np.empty(size, dtype=np.float64)
    if m == 0:
        # An empty conjunction is trivially satisfied by every minterm: Σ_N
        # degenerates to the constant 1 signal.
        out.fill(1.0)
        return out
    if plan.has_empty_clause:
        # An empty clause has no satisfying minterm: its Z_j is the zero
        # signal, which forces Σ_N (and hence S_N) to zero.
        out.fill(0.0)
        return out
    workspace = workspace if workspace is not None else Workspace()
    positive = arr[:, :, POSITIVE, :]
    negative = arr[:, :, NEGATIVE, :]
    terms = np.add(positive, negative, out=workspace.take("sigma.terms", m, n, size))
    full = np.multiply.reduce(terms, axis=1, out=workspace.take("sigma.full", m, size))
    for clause, variable, polarity in plan.cube_rows:
        np.copyto(terms[clause, variable], arr[clause, variable, polarity])
    cube = np.multiply.reduce(terms, axis=1, out=workspace.take("sigma.cube", m, size))
    if plan.tautologies.size:
        cube[plan.tautologies] = 0.0
    clauses = np.subtract(full, cube, out=full)
    return np.multiply.reduce(clauses, axis=0, out=out)


def clause_minterm_sets(formula: CNFFormula) -> list[MintermSet]:
    """Exact ``Z_j`` minterm sets, one per clause."""
    return [
        MintermSet.from_clause(formula.num_variables, clause) for clause in formula
    ]


def satisfying_minterms(formula: CNFFormula) -> MintermSet:
    """Exact set of minterms present in every ``Z_j`` — the models of ``S``.

    This is the minterm set whose members correlate with ``τ_N``; its size is
    the model count ``K`` that scales the mean of ``S_N``. It is the AND,
    over the clauses, of the OR of each clause's literal masks.
    """
    masks = literal_masks(formula.num_variables)
    bits = masks.full
    for clause in formula.clauses:
        bits &= masks.clause(clause)
        if not bits:
            break
    return MintermSet.from_bits(formula.num_variables, bits)
