"""Noise-based logic hyperspace algebra (paper Section III-A/B).

Two complementary views of the 2^n-element hyperspace are provided:

* :class:`~repro.hyperspace.minterm.MintermSet` — the *exact* (symbolic)
  view: a subset of the 2^n minterms, stored as one ``int`` bitset, with the
  set algebra that products and additive superpositions of orthogonal noise
  vectors induce.
* :mod:`~repro.hyperspace.superposition` / :mod:`~repro.hyperspace.reference`
  — the *sampled* view: NumPy builders that evaluate the superposition
  signals ``T``, ``T_v`` (Equation 1 and the cube-subspace variant) and the
  reference hyperspace ``τ_N`` (Equation 2) on blocks of carrier samples.
"""

from repro.hyperspace.minterm import MintermSet, minterm_index_of, cube_minterms
from repro.hyperspace.superposition import (
    clause_full_superposition,
    clause_cube_subspace,
    clause_literal_subspace,
    minterm_noise_product,
)
from repro.hyperspace.reference import reference_hyperspace, reference_minterms

__all__ = [
    "MintermSet",
    "minterm_index_of",
    "cube_minterms",
    "clause_full_superposition",
    "clause_cube_subspace",
    "clause_literal_subspace",
    "minterm_noise_product",
    "reference_hyperspace",
    "reference_minterms",
]
