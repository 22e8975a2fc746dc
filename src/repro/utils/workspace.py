"""Reusable scratch buffers for the vectorised NBL evaluators.

The sampled engines evaluate ``τ_N`` and ``Σ_N`` tile by tile, thousands of
times per check. Allocating every intermediate afresh would dominate the
runtime and memory of those loops, so evaluators draw their intermediates
from a :class:`Workspace` that keeps one flat buffer per name and hands out
C-contiguous views of it.
"""

from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Named float64 scratch arrays, allocated once and grown on demand.

    :meth:`take` returns a C-contiguous view of the buffer's prefix with the
    requested shape; its contents are whatever the previous user left
    there. Two live intermediates must use two names.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        """An uninitialised ``shape`` view of the buffer called ``name``."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype=np.float64)
        return buffer[:size].reshape(shape)
