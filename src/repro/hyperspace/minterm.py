"""Exact minterm-set algebra over the NBL hyperspace.

In idealised NBL (infinite observation time), the additive superposition of
a set of orthogonal hyperspace products is fully characterised by *which*
minterms appear in it: products of superpositions correspond to element-wise
"joins" and the correlation of two superpositions counts their common
minterms. :class:`MintermSet` captures exactly this semantics as a
``2^n``-bit set stored in one Python ``int`` (bit ``i`` set iff minterm ``i``
is a member): union is OR, the correlation count is the popcount of AND, and
binding a variable ANDs with a cube mask. It is the data structure behind the
exact/symbolic NBL engine (:mod:`repro.core.symbolic`).

Minterm index convention: bit ``i`` (LSB first) of the index is the value of
variable ``i + 1`` — shared with :class:`repro.cnf.assignment.Assignment`.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.cnf.assignment import Assignment
from repro.exceptions import HyperspaceError

#: Guard against accidentally allocating gigantic masks.
MAX_SYMBOLIC_VARIABLES = 26

#: Literal-mask tables over at most this many variables are cached, one per
#: ``n``: up to ``2n`` masks of ``2^n`` bits, 5 MiB at 20 variables. At 26
#: variables a full table would take over 400 MB, so a larger table lives only
#: as long as its caller keeps it (the symbolic engine keeps its own).
CACHED_TABLE_VARIABLES = 20


def _popcount_bin(bits: int) -> int:
    """Number of set bits of a non-negative ``int``, for interpreters
    without ``int.bit_count`` (Python < 3.10)."""
    return bin(bits).count("1")


#: Number of set bits of a non-negative ``int``.
popcount = getattr(int, "bit_count", _popcount_bin)


def _check_num_variables(num_variables: int) -> int:
    if num_variables < 0:
        raise HyperspaceError(f"num_variables must be >= 0, got {num_variables}")
    if num_variables > MAX_SYMBOLIC_VARIABLES:
        raise HyperspaceError(
            f"symbolic hyperspace over {num_variables} variables exceeds the "
            f"{MAX_SYMBOLIC_VARIABLES}-variable limit"
        )
    return num_variables


def _full_bits(num_variables: int) -> int:
    return (1 << (1 << num_variables)) - 1


def _bits_to_mask(bits: int, num_variables: int) -> np.ndarray:
    size = 1 << num_variables
    packed = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").view(bool)


def _mask_to_bits(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class LiteralMasks:
    """The literal masks over ``n`` variables, each built on first use.

    ``literal(v)`` has bit ``i`` set iff variable ``v`` is true in minterm
    ``i``: a period of ``2^(v-1)`` zeros then ``2^(v-1)`` ones, repeated.
    It is built by doubling the period until it spans all ``2^n`` bits;
    ``literal(-v)`` is its complement.
    """

    __slots__ = ("num_variables", "full", "_masks")

    def __init__(self, num_variables: int) -> None:
        self.num_variables = _check_num_variables(num_variables)
        self.full = _full_bits(num_variables)
        self._masks: dict[int, int] = {}

    def literal(self, literal: int) -> int:
        """Minterms in which the DIMACS ``literal`` is true."""
        mask = self._masks.get(literal)
        if mask is None:
            mask = self._masks[literal] = self._build(literal)
        return mask

    def clause(self, clause: Iterable[int]) -> int:
        """Minterms satisfying ``clause`` (DIMACS literals): the OR of its
        literal masks, so the empty clause has none."""
        bits = 0
        for literal in clause:
            bits |= self.literal(literal)
        return bits

    def cube(self, bindings: Mapping[int, bool]) -> int:
        """Minterms matching every binding ``variable -> value``."""
        bits = self.full
        for variable, value in bindings.items():
            if not 1 <= variable <= self.num_variables:
                raise HyperspaceError(
                    f"bound variable x{variable} out of range "
                    f"1..{self.num_variables}"
                )
            bits &= self.literal(variable if value else -variable)
        return bits

    def _build(self, literal: int) -> int:
        variable = abs(literal)
        if not 1 <= variable <= self.num_variables:
            raise HyperspaceError(
                f"variable x{variable} out of range 1..{self.num_variables}"
            )
        half = 1 << (variable - 1)
        mask = ((1 << half) - 1) << half
        width = half << 1
        size = 1 << self.num_variables
        while width < size:
            mask |= mask << width
            width <<= 1
        return mask if literal > 0 else self.full ^ mask


@lru_cache(maxsize=None)
def _cached_literal_masks(num_variables: int) -> LiteralMasks:
    return LiteralMasks(num_variables)


def literal_masks(num_variables: int) -> LiteralMasks:
    """The literal-mask table over ``num_variables`` variables, shared for
    up to :data:`CACHED_TABLE_VARIABLES` variables and fresh beyond."""
    if num_variables <= CACHED_TABLE_VARIABLES:
        return _cached_literal_masks(num_variables)
    return LiteralMasks(num_variables)


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
    return _bits_to_mask(literal_masks(num_variables).cube(bindings), num_variables)


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

    __slots__ = ("_bits", "_num_variables")

    def __init__(self, num_variables: int, mask: np.ndarray | None = None) -> None:
        _check_num_variables(num_variables)
        bits = 0
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            size = 1 << num_variables
            if mask.shape != (size,):
                raise HyperspaceError(
                    f"mask has shape {mask.shape}, expected ({size},)"
                )
            bits = _mask_to_bits(mask)
        self._bits = bits
        self._num_variables = num_variables

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_bits(cls, num_variables: int, bits: int) -> "MintermSet":
        """The set whose members are the set bits of ``bits`` (bit ``i`` is
        minterm ``i``)."""
        _check_num_variables(num_variables)
        if bits < 0 or bits.bit_length() > 1 << num_variables:
            raise HyperspaceError(
                f"bits name minterms outside 0..{(1 << num_variables) - 1}"
            )
        result = cls.__new__(cls)
        result._bits = bits
        result._num_variables = num_variables
        return result

    @classmethod
    def empty(cls, num_variables: int) -> "MintermSet":
        """The empty superposition (the zero signal)."""
        return cls(num_variables)

    @classmethod
    def full(cls, num_variables: int) -> "MintermSet":
        """All 2^n minterms — the hyperspace ``T`` of Equation 1."""
        _check_num_variables(num_variables)
        return cls.from_bits(num_variables, _full_bits(num_variables))

    @classmethod
    def from_indices(cls, num_variables: int, indices: Iterable[int]) -> "MintermSet":
        """Superposition of the given minterm indices."""
        _check_num_variables(num_variables)
        size = 1 << num_variables
        mask = np.zeros(size, dtype=bool)
        for index in indices:
            if not 0 <= index < size:
                raise HyperspaceError(
                    f"minterm index {index} out of range for {num_variables} variables"
                )
            mask[index] = True
        return cls(num_variables, mask)

    @classmethod
    def from_cube(
        cls, num_variables: int, bindings: Mapping[int, bool]
    ) -> "MintermSet":
        """The cube subspace ``T_v`` of Example 4: all minterms matching ``bindings``."""
        return cls.from_bits(num_variables, literal_masks(num_variables).cube(bindings))

    @classmethod
    def from_literal(cls, num_variables: int, literal: int) -> "MintermSet":
        """All minterms in which the DIMACS ``literal`` is true (cube of one
        literal)."""
        return cls.from_bits(num_variables, literal_masks(num_variables).literal(literal))

    @classmethod
    def from_clause(cls, num_variables: int, clause: Iterable[int]) -> "MintermSet":
        """All minterms satisfying ``clause`` (DIMACS literals) — the ``Z_j``
        superposition."""
        return cls.from_bits(num_variables, literal_masks(num_variables).clause(clause))

    # -- set algebra -----------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of variables ``n`` of the hyperspace."""
        return self._num_variables

    @property
    def bits(self) -> int:
        """Membership as one ``int``: bit ``i`` is set iff minterm ``i`` is in."""
        return self._bits

    @property
    def mask(self) -> np.ndarray:
        """Boolean membership mask (a fresh array; mutations do not affect
        the set)."""
        return _bits_to_mask(self._bits, self._num_variables)

    def _check_compatible(self, other: "MintermSet") -> None:
        if self._num_variables != other._num_variables:
            raise HyperspaceError(
                "cannot combine minterm sets over different variable counts: "
                f"{self._num_variables} vs {other._num_variables}"
            )

    def _with_bits(self, bits: int) -> "MintermSet":
        return MintermSet.from_bits(self._num_variables, bits)

    def __or__(self, other: "MintermSet") -> "MintermSet":
        """Additive superposition (set union)."""
        self._check_compatible(other)
        return self._with_bits(self._bits | other._bits)

    def __and__(self, other: "MintermSet") -> "MintermSet":
        """Common-minterm set (what the correlation ⟨·⟩ 'sees')."""
        self._check_compatible(other)
        return self._with_bits(self._bits & other._bits)

    def __sub__(self, other: "MintermSet") -> "MintermSet":
        self._check_compatible(other)
        return self._with_bits(self._bits & ~other._bits)

    def complement(self) -> "MintermSet":
        """All minterms not in this set."""
        return self._with_bits(self._bits ^ _full_bits(self._num_variables))

    def restrict(self, bindings: Mapping[int, bool]) -> "MintermSet":
        """Intersect with the cube defined by ``bindings`` (variable binding)."""
        cube = literal_masks(self._num_variables).cube(bindings)
        return self._with_bits(self._bits & cube)

    # -- queries ---------------------------------------------------------------
    def count(self) -> int:
        """Number of minterms in the superposition."""
        return popcount(self._bits)

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __contains__(self, index: int) -> bool:
        index = operator.index(index)
        return 0 <= index < 1 << self._num_variables and bool(self._bits >> index & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MintermSet):
            return NotImplemented
        return (
            self._num_variables == other._num_variables and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self._num_variables, self._bits))

    def indices(self) -> np.ndarray:
        """Sorted array of member minterm indices."""
        return np.flatnonzero(self.mask)

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in self.indices())

    def assignments(self) -> Iterator[Assignment]:
        """Iterate the member minterms as complete assignments."""
        for index in self.indices():
            yield Assignment.from_minterm_index(int(index), self._num_variables)

    def correlation_count(self, other: "MintermSet") -> int:
        """``|self ∩ other|`` — the number of correlating minterms."""
        self._check_compatible(other)
        return popcount(self._bits & other._bits)

    def __repr__(self) -> str:
        return (
            f"MintermSet(num_variables={self._num_variables}, "
            f"count={self.count()})"
        )
