"""The reference hyperspace ``τ_N`` (paper Equation 2) — sampled and symbolic.

``τ_N`` is the additive superposition of all logically *valid* minterms.
Each variable ``x_i`` contributes the factor

    ( Π_j N^j_{x_i}  +  Π_j N^j_{~x_i} )

i.e. the product over **all clauses'** sources for the positive literal plus
the product over all clauses' sources for the negative literal. Binding a
variable (Algorithm 2) replaces the factor by the single chosen product.

:func:`reference_hyperspace` writes into caller-provided buffers, so the
sampled engines can evaluate it tile by tile without allocating.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.exceptions import HyperspaceError
from repro.hyperspace.minterm import MintermSet
from repro.noise.bank import NEGATIVE, POSITIVE
from repro.utils.workspace import Workspace


def reference_hyperspace(
    block: np.ndarray,
    bindings: Optional[Mapping[int, bool]] = None,
    out: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Evaluate ``τ_N`` (optionally with bound variables) on a sample block.

    Parameters
    ----------
    block:
        Carrier samples of shape ``(m, n, 2, B)`` from
        :class:`repro.noise.bank.NoiseBank` (or a tile of such a block).
    bindings:
        Mapping ``variable -> value``; bound variables contribute only the
        chosen literal's all-clause product (Algorithm 2's ``τ_N^red``).
    out:
        Optional float64 vector of ``B`` values to write the result into.
    workspace:
        Optional scratch buffers reused across calls; a fresh one is used
        when omitted.

    Returns
    -------
    numpy.ndarray
        Vector of ``B`` samples of ``τ_N``.
    """
    arr = np.asarray(block)
    if arr.ndim != 4 or arr.shape[2] != 2:
        raise HyperspaceError(
            f"sample block must have shape (m, n, 2, B), got {arr.shape}"
        )
    _, num_variables, _, size = arr.shape
    bindings = bindings or {}
    for variable in bindings:
        if not 1 <= variable <= num_variables:
            raise HyperspaceError(
                f"bound variable x{variable} out of range 1..{num_variables}"
            )
    workspace = workspace if workspace is not None else Workspace()
    if out is None:
        out = np.empty(size, dtype=np.float64)

    # Product over clauses of each literal's sources: shape (n, B) each.
    positive = workspace.take("tau.positive", num_variables, size)
    negative = workspace.take("tau.negative", num_variables, size)
    np.multiply.reduce(arr[:, :, POSITIVE, :], axis=0, out=positive)
    np.multiply.reduce(arr[:, :, NEGATIVE, :], axis=0, out=negative)

    # A bound variable keeps only its chosen literal's product: zero the
    # other one, so the per-variable sum below leaves the chosen one as is.
    for variable, value in bindings.items():
        (negative if value else positive)[variable - 1] = 0.0
    factors = np.add(positive, negative, out=positive)
    return np.multiply.reduce(factors, axis=0, out=out)


def reference_minterms(
    num_variables: int, bindings: Optional[Mapping[int, bool]] = None
) -> MintermSet:
    """Symbolic counterpart of :func:`reference_hyperspace`.

    Without bindings this is the full hyperspace (every minterm is valid);
    with bindings it is the cube subspace selected by the bound variables.
    """
    return MintermSet.from_cube(num_variables, bindings or {})
