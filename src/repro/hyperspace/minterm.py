"""Exact minterm-set algebra over the NBL hyperspace.

In idealised NBL (infinite observation time), the additive superposition of
a set of orthogonal hyperspace products is fully characterised by *which*
minterms appear in it: products of superpositions correspond to element-wise
"joins" and the correlation of two superpositions counts their common
minterms. :class:`MintermSet` captures exactly this semantics with a boolean
mask over the 2^n minterm indices, and is the data structure behind the
exact/symbolic NBL engine (:mod:`repro.core.symbolic`).

Minterm index convention: bit ``i`` (LSB first) of the index is the value of
variable ``i + 1`` — shared with :class:`repro.cnf.assignment.Assignment`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.cnf.assignment import Assignment
from repro.exceptions import HyperspaceError

#: Guard against accidentally allocating gigantic masks.
MAX_SYMBOLIC_VARIABLES = 26


def _check_num_variables(num_variables: int) -> int:
    if num_variables < 0:
        raise HyperspaceError(f"num_variables must be >= 0, got {num_variables}")
    if num_variables > MAX_SYMBOLIC_VARIABLES:
        raise HyperspaceError(
            f"symbolic hyperspace over {num_variables} variables exceeds the "
            f"{MAX_SYMBOLIC_VARIABLES}-variable limit"
        )
    return num_variables


def minterm_index_of(assignment: Mapping[int, bool], num_variables: int) -> int:
    """Minterm index of a complete assignment over ``num_variables`` variables."""
    index = 0
    for variable in range(1, num_variables + 1):
        if variable not in assignment:
            raise HyperspaceError(f"variable x{variable} is unassigned")
        if assignment[variable]:
            index |= 1 << (variable - 1)
    return index


def cube_minterms(bindings: Mapping[int, bool], num_variables: int) -> np.ndarray:
    """Boolean mask of the minterms inside the cube defined by ``bindings``.

    Unbound variables are free; e.g. ``bindings={1: False}`` over three
    variables selects the four minterms of the cube ``~x1`` (paper Example 4).
    """
    _check_num_variables(num_variables)
    size = 1 << num_variables
    mask = np.ones(size, dtype=bool)
    indices = np.arange(size, dtype=np.uint32)
    for variable, value in bindings.items():
        if not 1 <= variable <= num_variables:
            raise HyperspaceError(
                f"bound variable x{variable} out of range 1..{num_variables}"
            )
        bit = ((indices >> np.uint32(variable - 1)) & np.uint32(1)).astype(bool)
        mask &= bit if value else ~bit
    return mask


class MintermSet:
    """A subset of the 2^n minterms, with NBL-superposition semantics.

    * The additive superposition of two noise superpositions is the set
      **union** of their minterms.
    * The correlation ⟨A · B⟩ of two superpositions built over *the same*
      basis sources is proportional to ``|A ∩ B|`` (each shared minterm
      contributes its self-correlation; distinct minterms are orthogonal).

    The per-clause product structure of Σ_N (minterms of clause c_j built
    from clause j's private sources correlating only against equal minterms
    of other clauses) is handled by the symbolic engine, which intersects
    per-clause minterm sets; :class:`MintermSet` itself is clause-agnostic.
    """

    __slots__ = ("_mask", "_num_variables")

    def __init__(self, num_variables: int, mask: np.ndarray | None = None) -> None:
        _check_num_variables(num_variables)
        size = 1 << num_variables
        if mask is None:
            mask = np.zeros(size, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (size,):
                raise HyperspaceError(
                    f"mask has shape {mask.shape}, expected ({size},)"
                )
            mask = mask.copy()
        self._mask = mask
        self._num_variables = num_variables

    # -- constructors --------------------------------------------------------
    @classmethod
    def empty(cls, num_variables: int) -> "MintermSet":
        """The empty superposition (the zero signal)."""
        return cls(num_variables)

    @classmethod
    def full(cls, num_variables: int) -> "MintermSet":
        """All 2^n minterms — the hyperspace ``T`` of Equation 1."""
        return cls(num_variables, np.ones(1 << num_variables, dtype=bool))

    @classmethod
    def from_indices(cls, num_variables: int, indices: Iterable[int]) -> "MintermSet":
        """Superposition of the given minterm indices."""
        result = cls(num_variables)
        size = 1 << num_variables
        for index in indices:
            if not 0 <= index < size:
                raise HyperspaceError(
                    f"minterm index {index} out of range for {num_variables} variables"
                )
            result._mask[index] = True
        return result

    @classmethod
    def from_cube(
        cls, num_variables: int, bindings: Mapping[int, bool]
    ) -> "MintermSet":
        """The cube subspace ``T_v`` of Example 4: all minterms matching ``bindings``."""
        return cls(num_variables, cube_minterms(bindings, num_variables))

    @classmethod
    def from_literal(cls, num_variables: int, literal: int) -> "MintermSet":
        """All minterms in which the DIMACS ``literal`` is true (cube of one
        literal)."""
        return cls.from_cube(num_variables, {abs(literal): literal > 0})

    @classmethod
    def from_clause(cls, num_variables: int, clause: Iterable[int]) -> "MintermSet":
        """All minterms satisfying ``clause`` (DIMACS literals) — the ``Z_j``
        superposition."""
        result = cls.empty(num_variables)
        for literal in clause:
            result = result | cls.from_literal(num_variables, literal)
        return result

    # -- set algebra -----------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of variables ``n`` of the hyperspace."""
        return self._num_variables

    @property
    def mask(self) -> np.ndarray:
        """Boolean membership mask (a copy; mutations do not affect the set)."""
        return self._mask.copy()

    def _check_compatible(self, other: "MintermSet") -> None:
        if self._num_variables != other._num_variables:
            raise HyperspaceError(
                "cannot combine minterm sets over different variable counts: "
                f"{self._num_variables} vs {other._num_variables}"
            )

    def __or__(self, other: "MintermSet") -> "MintermSet":
        """Additive superposition (set union)."""
        self._check_compatible(other)
        return MintermSet(self._num_variables, self._mask | other._mask)

    def __and__(self, other: "MintermSet") -> "MintermSet":
        """Common-minterm set (what the correlation ⟨·⟩ 'sees')."""
        self._check_compatible(other)
        return MintermSet(self._num_variables, self._mask & other._mask)

    def __sub__(self, other: "MintermSet") -> "MintermSet":
        self._check_compatible(other)
        return MintermSet(self._num_variables, self._mask & ~other._mask)

    def complement(self) -> "MintermSet":
        """All minterms not in this set."""
        return MintermSet(self._num_variables, ~self._mask)

    def restrict(self, bindings: Mapping[int, bool]) -> "MintermSet":
        """Intersect with the cube defined by ``bindings`` (variable binding)."""
        return MintermSet(
            self._num_variables,
            self._mask & cube_minterms(bindings, self._num_variables),
        )

    # -- queries ---------------------------------------------------------------
    def count(self) -> int:
        """Number of minterms in the superposition."""
        return int(self._mask.sum())

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return bool(self._mask.any())

    def __contains__(self, index: int) -> bool:
        return bool(0 <= index < self._mask.size and self._mask[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MintermSet):
            return NotImplemented
        return self._num_variables == other._num_variables and bool(
            np.array_equal(self._mask, other._mask)
        )

    def __hash__(self) -> int:
        return hash((self._num_variables, self._mask.tobytes()))

    def indices(self) -> np.ndarray:
        """Sorted array of member minterm indices."""
        return np.flatnonzero(self._mask)

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in self.indices())

    def assignments(self) -> Iterator[Assignment]:
        """Iterate the member minterms as complete assignments."""
        for index in self.indices():
            yield Assignment.from_minterm_index(int(index), self._num_variables)

    def correlation_count(self, other: "MintermSet") -> int:
        """``|self ∩ other|`` — the number of correlating minterms."""
        return (self & other).count()

    def __repr__(self) -> str:
        return (
            f"MintermSet(num_variables={self._num_variables}, "
            f"count={self.count()})"
        )
