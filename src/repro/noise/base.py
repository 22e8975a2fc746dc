"""Carrier interface: the statistical family of a basis noise process.

A *carrier* describes how samples of one basis noise source are drawn. The
paper uses uniform random variables on [-0.5, 0.5]; Section V points out that
Random Telegraph Waves (±1 processes) and sinusoids can serve the same role.
All carriers used by :class:`repro.noise.bank.NoiseBank` must be zero-mean
and i.i.d. across samples and across sources; sinusoids (deterministic in
time) live in :mod:`repro.sbl` instead.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, Sequence, Type

import numpy as np

from repro.exceptions import NoiseConfigError


#: Values drawn per RNG call by the in-place ``fill`` implementations: one
#: chunk's scaling passes run while it is still in cache.
FILL_CHUNK = 1 << 16


def fill_chunks(out: np.ndarray) -> Iterator[np.ndarray]:
    """Flat, contiguous views covering ``out`` in :data:`FILL_CHUNK` pieces.

    Chunking only changes how many values each RNG call draws, never which
    values are drawn: the stream is consumed in the same order as one call
    over the whole array.
    """
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise NoiseConfigError("fill needs a C-contiguous float64 array")
    flat = out.reshape(-1)
    for start in range(0, flat.size, FILL_CHUNK):
        yield flat[start:start + FILL_CHUNK]


class Carrier(abc.ABC):
    """Abstract statistical family of one basis noise process.

    Subclasses implement :meth:`sample` or :meth:`fill` (or both); each
    method's default is written in terms of the other.
    """

    #: Short registry name, overridden by subclasses.
    name: str = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.sample is Carrier.sample and cls.fill is Carrier.fill:
            raise TypeError(f"{cls.__name__} must implement sample() or fill()")

    def sample(self, rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
        """Draw an array of i.i.d. carrier samples of the given ``shape``."""
        return self.fill(rng, np.empty(tuple(shape), dtype=np.float64))

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Overwrite ``out`` with i.i.d. carrier samples and return it.

        The default draws through :meth:`sample` and copies; the paper's
        carriers override it to draw in place without temporaries.
        """
        out[...] = self.sample(rng, out.shape)
        return out

    @property
    @abc.abstractmethod
    def power(self) -> float:
        """Second moment ``E[x^2]`` of one carrier sample.

        This is the per-factor scale of the NBL signal: a satisfying minterm
        contributes ``power ** (n·m)`` to the mean of ``τ_N · Σ_N``.
        """

    @property
    def mean(self) -> float:
        """First moment of the carrier (always zero for valid NBL carriers)."""
        return 0.0

    @property
    def fourth_moment(self) -> float:
        """``E[x^4]``; used by the SNR analysis. Defaults to ``3·power²``
        (the Gaussian value); subclasses override with the exact value."""
        return 3.0 * self.power**2

    def describe(self) -> str:
        """One-line human description used in experiment reports."""
        return f"{self.name} carrier (power={self.power:.4g})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(
            other, "__dict__", None
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


#: Registry mapping carrier names to classes; populated by register_carrier.
_CARRIER_REGISTRY: Dict[str, Type[Carrier]] = {}


def register_carrier(cls: Type[Carrier]) -> Type[Carrier]:
    """Class decorator adding a carrier to the by-name registry."""
    if not issubclass(cls, Carrier):
        raise NoiseConfigError(f"{cls!r} is not a Carrier subclass")
    if not cls.name or cls.name == "abstract":
        raise NoiseConfigError(f"{cls.__name__} must define a registry name")
    _CARRIER_REGISTRY[cls.name] = cls
    return cls


def available_carriers() -> list[str]:
    """Names of all registered carrier families."""
    return sorted(_CARRIER_REGISTRY)


def carrier_from_name(name: str, **kwargs) -> Carrier:
    """Instantiate a registered carrier by name (e.g. ``"uniform"``)."""
    try:
        cls = _CARRIER_REGISTRY[name]
    except KeyError as exc:
        raise NoiseConfigError(
            f"unknown carrier {name!r}; available: {available_carriers()}"
        ) from exc
    return cls(**kwargs)
