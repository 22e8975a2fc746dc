"""Uniform carriers — the carrier family used throughout the paper."""

from __future__ import annotations

import numpy as np

from repro.exceptions import NoiseConfigError
from repro.noise.base import Carrier, fill_chunks, register_carrier


@register_carrier
class UniformCarrier(Carrier):
    """Zero-mean uniform noise on ``[-half_width, +half_width]``.

    The paper's experiments use ``half_width = 0.5`` (samples uniform on
    [-0.5, 0.5]), giving per-sample power ``E[x²] = 1/12``. Passing
    ``normalized=True`` rescales the interval so that ``E[x²] = 1``, which
    keeps the NBL signal mean equal to the satisfying-minterm count instead
    of ``K · (1/12)^{nm}`` (useful for large ``n·m`` where the paper's
    scaling underflows double precision).
    """

    name = "uniform"

    def __init__(self, half_width: float = 0.5, normalized: bool = False) -> None:
        if half_width <= 0:
            raise NoiseConfigError(f"half_width must be positive, got {half_width}")
        if normalized:
            # Var of U[-a, a] is a²/3; unit power requires a = sqrt(3).
            half_width = float(np.sqrt(3.0))
        self.half_width = float(half_width)

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        width = self.half_width
        for chunk in fill_chunks(out):
            # -a + 2a·u, the arithmetic of rng.uniform(-a, a): same stream.
            rng.random(out=chunk)
            chunk *= 2.0 * width
            chunk -= width
        return out

    @property
    def power(self) -> float:
        return self.half_width**2 / 3.0

    @property
    def fourth_moment(self) -> float:
        return self.half_width**4 / 5.0

    def __repr__(self) -> str:
        return f"UniformCarrier(half_width={self.half_width!r})"
