"""The bank of basis noise sources backing one NBL-SAT instance.

The paper's construction (Section III-C) uses **2·m·n independent basis
noise sources**: for every clause ``c_j`` (j = 1..m) and every variable
``x_i`` (i = 1..n) there is one source ``N^j_{x_i}`` for the positive literal
and one source ``N^j_{~x_i}`` for the negative literal. :class:`NoiseBank`
materialises batches of samples of all of these sources as a single NumPy
array of shape ``(m, n, 2, block)`` -- freshly allocated, or drawn in place
into a caller's buffer -- so the Σ/τ builders can work fully vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import NoiseConfigError
from repro.noise.base import Carrier
from repro.noise.uniform import UniformCarrier
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

#: Index of the positive-literal source along the polarity axis.
POSITIVE = 0
#: Index of the negative-literal source along the polarity axis.
NEGATIVE = 1


@dataclass(frozen=True)
class SourceIndex:
    """Identifies one basis noise source ``N^clause_{literal}``.

    Attributes
    ----------
    clause:
        1-based clause index ``j``.
    variable:
        1-based variable index ``i``.
    positive:
        ``True`` for ``N^j_{x_i}``, ``False`` for ``N^j_{~x_i}``.
    """

    clause: int
    variable: int
    positive: bool

    def array_index(self) -> tuple[int, int, int]:
        """The ``(clause, variable, polarity)`` position inside a sample block."""
        return (self.clause - 1, self.variable - 1, POSITIVE if self.positive else NEGATIVE)

    def __str__(self) -> str:
        literal = f"x{self.variable}" if self.positive else f"~x{self.variable}"
        return f"N^{self.clause}_{literal}"


class NoiseBank:
    """Batch sampler for the 2·m·n basis noise sources of one instance.

    Parameters
    ----------
    num_clauses:
        Number of clauses ``m`` of the SAT instance.
    num_variables:
        Number of variables ``n`` of the SAT instance.
    carrier:
        Statistical family of every source (defaults to the paper's uniform
        [-0.5, 0.5] carrier).
    seed:
        Seed or generator for reproducible sampling.
    """

    def __init__(
        self,
        num_clauses: int,
        num_variables: int,
        carrier: Optional[Carrier] = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive_int(num_clauses, "num_clauses")
        check_positive_int(num_variables, "num_variables")
        self._num_clauses = num_clauses
        self._num_variables = num_variables
        self._carrier = carrier if carrier is not None else UniformCarrier()
        if not isinstance(self._carrier, Carrier):
            raise NoiseConfigError(
                f"carrier must be a Carrier instance, got {type(carrier).__name__}"
            )
        self._rng = as_generator(seed)
        self._samples_drawn = 0

    # -- metadata -----------------------------------------------------------
    @property
    def num_clauses(self) -> int:
        """Number of clauses ``m``."""
        return self._num_clauses

    @property
    def num_variables(self) -> int:
        """Number of variables ``n``."""
        return self._num_variables

    @property
    def num_sources(self) -> int:
        """Total number of basis noise sources (``2·m·n``)."""
        return 2 * self._num_clauses * self._num_variables

    @property
    def carrier(self) -> Carrier:
        """The carrier family shared by every source."""
        return self._carrier

    @property
    def samples_drawn(self) -> int:
        """Total number of time samples drawn so far (per source)."""
        return self._samples_drawn

    # -- sampling -----------------------------------------------------------
    def sample_block(self, block_size: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw ``block_size`` fresh samples of every source.

        Returns an array of shape ``(m, n, 2, block_size)``; axis 2 indexes
        polarity (:data:`POSITIVE` then :data:`NEGATIVE`). With ``out`` (a
        C-contiguous float64 array of that shape) the carrier fills it in
        place and it is returned; the engines pass the same buffer for every
        block of every check.

        Consecutive calls draw from one generator, so i.i.d. carriers
        continue the same sample streams. :class:`TelegraphCarrier` is the
        exception: each block restarts every wave with a fresh random sign,
        so its sign persistence does not carry across block boundaries.
        """
        check_positive_int(block_size, "block_size")
        shape = (self._num_clauses, self._num_variables, 2, block_size)
        if out is None:
            block = self._carrier.sample(self._rng, shape)
        elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise NoiseConfigError(
                f"out must be a C-contiguous float64 array of shape {shape}, got "
                f"{out.dtype} {out.shape}"
            )
        else:
            block = self._carrier.fill(self._rng, out)
        if block.shape != shape:
            raise NoiseConfigError(
                f"carrier {self._carrier.name!r} returned shape {block.shape}, "
                f"expected {shape}"
            )
        self._samples_drawn += block_size
        return block

    def source(self, index: SourceIndex, block: np.ndarray) -> np.ndarray:
        """Extract one source's samples from a block returned by :meth:`sample_block`."""
        self._validate_index(index)
        return block[index.array_index()]

    def _validate_index(self, index: SourceIndex) -> None:
        if not 1 <= index.clause <= self._num_clauses:
            raise NoiseConfigError(
                f"clause index {index.clause} out of range 1..{self._num_clauses}"
            )
        if not 1 <= index.variable <= self._num_variables:
            raise NoiseConfigError(
                f"variable index {index.variable} out of range 1..{self._num_variables}"
            )

    def all_indices(self) -> list[SourceIndex]:
        """Every source index of the bank, in (clause, variable, polarity) order."""
        return [
            SourceIndex(j, i, positive)
            for j in range(1, self._num_clauses + 1)
            for i in range(1, self._num_variables + 1)
            for positive in (True, False)
        ]

    def __repr__(self) -> str:
        return (
            f"NoiseBank(m={self._num_clauses}, n={self._num_variables}, "
            f"carrier={self._carrier!r})"
        )
