"""NBL coprocessor guidance: branching decisions from reduced S_N means.

Section V of the paper sketches a hybrid engine in which "the assignment of
variables is guided through the NBL-SAT coprocessor": candidate bindings are
loaded into the coprocessor, which reports the mean of the reduced ``S_N``
— a quantity proportional to the number of satisfying minterms in the bound
subspace — and the CPU solver branches into the subspace with the highest
mean. Two concrete guidance modes are implemented:

* ``"value"`` (default) — the CPU solver keeps its own variable-selection
  heuristic (which maximises propagation) and the coprocessor only chooses
  the *polarity* to try first, by comparing the two reduced means. With an
  ideal coprocessor the search never descends into an empty subspace first,
  so satisfiable instances are solved without backtracking.
* ``"variable"`` — the paper's literal sketch: the coprocessor scores the
  candidate variables bound both ways and the CPU branches on the overall
  best ``(variable, value)``. This costs ``2·|candidates|`` coprocessor
  checks per decision and is kept for the ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cnf.formula import CNFFormula
from repro.core.config import NBLConfig
from repro.core.checker import make_engine
from repro.exceptions import EngineError
from repro.noise.telegraph import BipolarCarrier
from repro.solvers.dpll import most_frequent_variable

#: Supported guidance modes.
GUIDANCE_MODES = ("value", "variable")


class NBLGuidance:
    """Model of the NBL-SAT coprocessor used to guide a CPU solver.

    Parameters
    ----------
    engine:
        ``"symbolic"`` (exact coprocessor — the idealised infinite-
        observation device) or ``"sampled"`` (finite observation window).
    config:
        Configuration for the sampled coprocessor; ignored by the symbolic
        one. Defaults to a small-budget bipolar-carrier configuration,
        since guidance only needs relative ordering, not precise means.
    mode:
        ``"value"`` or ``"variable"`` (see module docstring).
    top_variables:
        In ``"variable"`` mode, how many of the most frequent free variables
        are scored per decision (bounds coprocessor traffic).
    """

    def __init__(
        self,
        engine: str = "symbolic",
        config: Optional[NBLConfig] = None,
        mode: str = "value",
        top_variables: int = 4,
    ) -> None:
        if engine not in ("symbolic", "sampled"):
            raise EngineError(
                f"guidance engine must be 'symbolic' or 'sampled', got {engine!r}"
            )
        if mode not in GUIDANCE_MODES:
            raise EngineError(
                f"guidance mode must be one of {GUIDANCE_MODES}, got {mode!r}"
            )
        if top_variables <= 0:
            raise EngineError("top_variables must be positive")
        self._engine_name = engine
        if config is None and engine == "sampled":
            config = NBLConfig(
                carrier=BipolarCarrier(),
                max_samples=20_000,
                block_size=5_000,
                min_samples=5_000,
            )
        self._config = config
        self._mode = mode
        self._top_variables = top_variables
        self.checks_issued = 0

    @property
    def mode(self) -> str:
        """The guidance mode in use."""
        return self._mode

    # -- scoring ------------------------------------------------------------------
    def _candidate_variables(self, formula: CNFFormula) -> list[int]:
        counts: Dict[int, int] = {}
        for clause in formula:
            for lit in clause:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        ranked = sorted(counts, key=lambda v: (-counts[v], v))
        return ranked[: self._top_variables]

    def _reduced_mean(self, engine, variable: int, value: bool) -> float:
        result = engine.check({variable: value})
        self.checks_issued += 1
        return result.mean

    def score_bindings(
        self, formula: CNFFormula, variables: Optional[list[int]] = None
    ) -> Dict[tuple[int, bool], float]:
        """Reduced-S_N mean for each candidate ``(variable, value)`` binding.

        The formula passed in should already be conditioned on the CPU
        solver's current partial assignment; the coprocessor binds τ_N inside
        a fresh engine for that residual formula.
        """
        if formula.num_clauses == 0 or formula.num_variables == 0:
            return {}
        engine = make_engine(formula, self._engine_name, self._config)
        if variables is None:
            variables = self._candidate_variables(formula)
        scores: Dict[tuple[int, bool], float] = {}
        for variable in variables:
            for value in (True, False):
                scores[(variable, value)] = self._reduced_mean(engine, variable, value)
        return scores

    def propose_branch(
        self, formula: CNFFormula, assignment: Dict[int, bool]
    ) -> Optional[tuple[int, bool]]:
        """Branching heuristic compatible with :class:`repro.solvers.dpll.DPLLSolver`.

        Returns ``None`` when the residual formula has no literals, letting
        the CPU solver fall back to its default heuristic.
        """
        if self._mode == "value":
            base = most_frequent_variable(formula, assignment)
            if base is None:
                return None
            variable, _default_value = base
            scores = self.score_bindings(formula, variables=[variable])
            if not scores:
                return None
            positive = scores[(variable, True)]
            negative = scores[(variable, False)]
            return variable, positive >= negative

        scores = self.score_bindings(formula)
        if not scores:
            return None
        (variable, value), _best = max(
            scores.items(), key=lambda item: (item[1], item[0][1], -item[0][0])
        )
        return variable, value

    def __call__(
        self, formula: CNFFormula, assignment: Dict[int, bool]
    ) -> Optional[tuple[int, bool]]:
        return self.propose_branch(formula, assignment)

    def __repr__(self) -> str:
        return (
            f"NBLGuidance(engine={self._engine_name!r}, mode={self._mode!r}, "
            f"checks={self.checks_issued})"
        )
