"""Bipolar (±1) and Random Telegraph Wave carriers.

Reference [17] of the paper ("Instantaneous noise-based logic") replaces the
continuous noise processes with Random Telegraph Waves: processes that take
only the values ``+A`` and ``-A``. Two properties make them attractive for
NBL-SAT:

* they remain zero-mean and pairwise independent, so every identity the
  paper relies on still holds;
* their square is *exactly* ``A²`` at every sample, so the self-correlation
  term of a satisfying minterm carries no sampling noise at all — only the
  cross terms fluctuate. This is the "high-SNR" realization benchmarked by
  the carrier ablation.

:class:`BipolarCarrier` flips an independent fair coin per sample (the
discrete-time idealisation), drawing exactly one random bit per value.
:class:`TelegraphCarrier` models the continuous-time RTW sampled at a
finite rate: the sign persists between switching events that arrive with a
per-sample switching probability, introducing temporal correlation *within*
one source while keeping distinct sources independent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import NoiseConfigError
from repro.noise.base import Carrier, fill_chunks, register_carrier


@register_carrier
class BipolarCarrier(Carrier):
    """I.i.d. ±amplitude carrier (discrete-time RTW)."""

    name = "bipolar"

    def __init__(self, amplitude: float = 1.0) -> None:
        if amplitude <= 0:
            raise NoiseConfigError(f"amplitude must be positive, got {amplitude}")
        self.amplitude = float(amplitude)

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        amplitude = self.amplitude
        for chunk in fill_chunks(out):
            # One random bit per value: bit 1 -> +a, bit 0 -> -a.
            raw = np.frombuffer(rng.bytes((chunk.size + 7) // 8), dtype=np.uint8)
            bits = np.unpackbits(raw, count=chunk.size)
            np.multiply(bits, 2.0 * amplitude, out=chunk)
            chunk -= amplitude
        return out

    @property
    def power(self) -> float:
        return self.amplitude**2

    @property
    def fourth_moment(self) -> float:
        return self.amplitude**4

    def __repr__(self) -> str:
        return f"BipolarCarrier(amplitude={self.amplitude!r})"


@register_carrier
class TelegraphCarrier(Carrier):
    """Random Telegraph Wave sampled at a finite rate.

    Each source starts at ±amplitude with equal probability and flips sign
    at each subsequent sample with probability ``switch_probability``. With
    ``switch_probability = 0.5`` this degenerates to :class:`BipolarCarrier`.

    Note that samples of one source are temporally correlated (correlation
    ``(1 - 2p)^lag``), which slows the convergence of time averages; the
    carrier-ablation experiment quantifies this effect.
    """

    name = "telegraph"

    def __init__(self, amplitude: float = 1.0, switch_probability: float = 0.5) -> None:
        if amplitude <= 0:
            raise NoiseConfigError(f"amplitude must be positive, got {amplitude}")
        if not 0.0 < switch_probability <= 1.0:
            raise NoiseConfigError(
                f"switch_probability must lie in (0, 1], got {switch_probability}"
            )
        self.amplitude = float(amplitude)
        self.switch_probability = float(switch_probability)

    def sample(self, rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
        shape = tuple(shape)
        if not shape:
            raise NoiseConfigError("TelegraphCarrier requires a non-scalar shape")
        # The last axis is time; all leading axes index independent sources.
        initial = rng.integers(0, 2, size=shape[:-1] + (1,)).astype(np.float64) * 2 - 1
        if shape[-1] == 0:
            return np.empty(shape)
        flips = rng.random(size=shape[:-1] + (shape[-1] - 1,)) < self.switch_probability
        # Cumulative parity of flips gives the sign trajectory.
        parity = np.cumsum(flips.astype(np.int64), axis=-1) % 2
        signs = np.concatenate(
            [np.zeros(shape[:-1] + (1,), dtype=np.int64), parity], axis=-1
        )
        trajectory = initial * np.where(signs == 0, 1.0, -1.0)
        return trajectory * self.amplitude

    @property
    def power(self) -> float:
        return self.amplitude**2

    @property
    def fourth_moment(self) -> float:
        return self.amplitude**4

    def __repr__(self) -> str:
        return (
            f"TelegraphCarrier(amplitude={self.amplitude!r}, "
            f"switch_probability={self.switch_probability!r})"
        )
