"""Gaussian carriers — thermal-noise-like basis processes.

The physical realization sketched in Section V amplifies a resistor's
thermal noise, which is Gaussian; this carrier family lets the carrier
ablation compare the paper's uniform sources against that physical model.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NoiseConfigError
from repro.noise.base import Carrier, fill_chunks, register_carrier


@register_carrier
class GaussianCarrier(Carrier):
    """Zero-mean Gaussian noise with configurable standard deviation."""

    name = "gaussian"

    def __init__(self, std: float = 1.0) -> None:
        if std <= 0:
            raise NoiseConfigError(f"std must be positive, got {std}")
        self.std = float(std)

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        for chunk in fill_chunks(out):
            # std·z, the arithmetic of rng.normal(0, std): same stream.
            rng.standard_normal(out=chunk)
            chunk *= self.std
        return out

    @property
    def power(self) -> float:
        return self.std**2

    @property
    def fourth_moment(self) -> float:
        return 3.0 * self.std**4

    def __repr__(self) -> str:
        return f"GaussianCarrier(std={self.std!r})"
