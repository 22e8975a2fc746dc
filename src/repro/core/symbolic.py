"""The exact (symbolic) NBL-SAT engine — the infinite-observation limit.

The paper stresses that NBL is a *deterministic* logic scheme: with an ideal
correlator (infinite observation time) the mean of ``S_N = τ_N · Σ_N`` is
exactly ``K · E[x²]^{n·m}`` where ``K`` is the number of satisfying minterms
inside the (possibly bound) reference hyperspace. This engine computes that
limit exactly using the minterm-set algebra of :mod:`repro.hyperspace`: the
models are one ``2^n``-bit ``int``, built once, and each check is the
popcount of the models ANDed with the bound reference's cube mask. So
Algorithms 1 and 2 can be exercised without any sampling noise. It doubles
as the ground-truth oracle for the Monte-Carlo engine's tests.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cnf.formula import CNFFormula
from repro.core.result import CheckResult
from repro.core.sigma import satisfying_minterms
from repro.exceptions import EngineError
from repro.hyperspace.minterm import LiteralMasks, MintermSet, literal_masks, popcount
from repro.noise.base import Carrier
from repro.noise.uniform import UniformCarrier


class SymbolicNBLEngine:
    """Exact evaluation of NBL-SAT checks via minterm-set algebra.

    Parameters
    ----------
    formula:
        The CNF instance ``S``.
    carrier:
        Carrier family used only to scale the reported mean to physical
        units (``E[x²]^{n·m}`` per satisfying minterm); the decision itself
        is carrier-independent.
    """

    name = "symbolic"

    def __init__(
        self, formula: CNFFormula, carrier: Optional[Carrier] = None
    ) -> None:
        if formula.num_variables == 0:
            raise EngineError("NBL-SAT requires at least one variable")
        self._formula = formula
        self._carrier = carrier if carrier is not None else UniformCarrier()
        # The satisfying minterm set is binding-independent, compute it once.
        self._models: MintermSet = satisfying_minterms(formula)
        # Every check ANDs a cube of literal masks; keep the table, since
        # above the cached sizes literal_masks() builds a fresh one per call.
        self._masks: LiteralMasks = literal_masks(formula.num_variables)

    # -- metadata -------------------------------------------------------------
    @property
    def formula(self) -> CNFFormula:
        """The CNF instance this engine is bound to."""
        return self._formula

    @property
    def carrier(self) -> Carrier:
        """Carrier family used for unit scaling."""
        return self._carrier

    @property
    def minterm_signal(self) -> float:
        """Exact contribution of one satisfying minterm to the mean of S_N."""
        exponent = self._formula.num_variables * max(self._formula.num_clauses, 1)
        return float(self._carrier.power**exponent)

    # -- operations --------------------------------------------------------------
    def model_count(self, bindings: Optional[Mapping[int, bool]] = None) -> int:
        """Number of satisfying minterms inside the (bound) reference hyperspace."""
        bindings = dict(bindings or {})
        self._validate_bindings(bindings)
        return popcount(self._models.bits & self._masks.cube(bindings))

    def expected_mean(self, bindings: Optional[Mapping[int, bool]] = None) -> float:
        """Exact mean of ``S_N`` for the given τ_N bindings."""
        return self.model_count(bindings) * self.minterm_signal

    def check(self, bindings: Optional[Mapping[int, bool]] = None) -> CheckResult:
        """Algorithm 1 in the exact limit: SAT iff any satisfying minterm remains."""
        bindings = dict(bindings or {})
        count = self.model_count(bindings)
        signal = self.minterm_signal
        return CheckResult(
            satisfiable=count > 0,
            mean=count * signal,
            threshold=0.5 * signal,
            samples_used=0,
            std_error=0.0,
            converged=True,
            expected_minterm_signal=signal,
            engine=self.name,
            bindings=bindings,
        )

    # -- helpers -------------------------------------------------------------------
    def _validate_bindings(self, bindings: Mapping[int, bool]) -> None:
        for variable in bindings:
            if not 1 <= variable <= self._formula.num_variables:
                raise EngineError(
                    f"bound variable x{variable} out of range "
                    f"1..{self._formula.num_variables}"
                )

    def __repr__(self) -> str:
        return (
            f"SymbolicNBLEngine(n={self._formula.num_variables}, "
            f"m={self._formula.num_clauses}, models={self._models.count()})"
        )
