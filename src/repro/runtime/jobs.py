"""The unit of work of the batch runtime: jobs and their outcomes.

A :class:`SolveJob` is a fully self-describing, picklable request — the
formula plus every knob needed to solve it — so it can cross a process
boundary. A :class:`SolveOutcome` is the transportable result: plain
strings, numbers and integer tuples only, so it round-trips through both
``pickle`` (worker processes) and JSON (the persistent result cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cnf.formula import CNFFormula
from repro.exceptions import RuntimeSubsystemError
from repro.solvers.base import SATSolver
from repro.solvers.registry import available_solvers, make_solver

#: The registry specs that run an NBL engine: they take the job's sample
#: budget and carrier, and report ``samples_used``.
NBL_SPECS = ("nbl-symbolic", "nbl-sampled")
#: The one runtime spec that is not a registry solver: the default, which
#: runs the exact NBL engine where its variable limit allows and CDCL
#: otherwise (see :func:`repro.runtime.pool.execute_job`).
PORTFOLIO_SPEC = "portfolio"
#: The specs that cannot emit DRAT derivations, so no job naming one
#: may ask for a proof.
NO_PROOF_SPECS = NBL_SPECS + (PORTFOLIO_SPEC,)
#: Classical solvers that accept a ``seed`` constructor argument.
SEEDED_SOLVERS = ("walksat", "gsat")
#: Solvers whose cost is exponential in the variable count: a job naming
#: one fails fast beyond its limit, and the default spec selects
#: ``nbl-symbolic`` only within it. The hybrid solver is listed because
#: its (default) symbolic guidance enumerates the residual formula's
#: minterms at every DPLL decision.
EXPONENTIAL_LIMITS = {"nbl-symbolic": 20, "brute-force": 24, "hybrid": 20}

#: Outcome statuses. ``SAT``/``UNSAT``/``UNKNOWN`` mirror the solver
#: verdicts; ``ERROR`` marks jobs that raised instead of answering.
ERROR = "ERROR"


def known_solver_specs() -> set[str]:
    """Every solver spec a job may name: the registry plus ``"portfolio"``."""
    return set(available_solvers()) | {PORTFOLIO_SPEC}


def refusal_reason(solver: str, formula: CNFFormula) -> Optional[str]:
    """Why ``solver`` must not be run on ``formula``, or ``None`` if it may.

    Single source of the exponential-cost refusal policy, shared by the
    worker pool (which fails the job fast, and selects the default spec's
    solver by it) and ``repro check``. The NBL engines also refuse a
    formula without variables, which has no hyperspace to check.
    """
    if solver in NBL_SPECS and formula.num_variables == 0:
        return f"{solver} requires at least one variable"
    limit = EXPONENTIAL_LIMITS.get(solver)
    if limit is not None and formula.num_variables > limit:
        return (
            f"{formula.num_variables} variables exceed {solver}'s "
            f"{limit}-variable limit"
        )
    return None


def make_spec_solver(
    spec: str, seed: Optional[int], samples: int, carrier: str
) -> SATSolver:
    """The registry solver for one run of runtime solver ``spec``.

    The one place that decides constructor arguments per spec, shared by
    the worker pool, ``repro check`` and the session factory: the NBL
    engines get the sample budget, carrier and seed, the stochastic local
    searches get the seed, and every other solver its defaults.
    """
    if spec in NBL_SPECS:
        return make_solver(spec, samples=samples, carrier=carrier, seed=seed)
    if spec in SEEDED_SOLVERS:
        return make_solver(spec, seed=seed)
    return make_solver(spec)


def solve_cache_key(fingerprint: str, assumptions: tuple[int, ...] = ()) -> str:
    """The result-cache key of one solve request.

    Satisfiability under assumptions is a property of ``(formula,
    assumption set)``, so the key combines the canonical formula
    fingerprint with the canonically-sorted assumption literals. Without
    assumptions the key is the bare fingerprint (compatible with caches
    persisted before assumptions existed); with them, the signed integers
    are appended after a ``"#"`` separator — an encoding that is injective
    in the assumption set, so different assumption sets can never collide.
    """
    if not assumptions:
        return fingerprint
    return fingerprint + "#" + ",".join(str(lit) for lit in sorted(assumptions))


def _normalise_assumptions(assumptions) -> tuple[int, ...]:
    """Validate and canonicalise an assumption sequence (sorted, unique)."""
    seen = set()
    for lit in assumptions:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise RuntimeSubsystemError(
                f"assumptions must be non-zero DIMACS literals, got {lit!r}"
            )
        seen.add(lit)
    return tuple(sorted(seen))


@dataclass
class SolveJob:
    """One solve request.

    Attributes
    ----------
    formula:
        The CNF instance to solve.
    job_id:
        Unique identifier within a batch; defaults to the formula
        fingerprint (prefixed) when empty. Feeds per-job seed derivation.
    label:
        Human-readable origin (typically the DIMACS file path).
    solver:
        Solver spec: ``"portfolio"`` or any registry solver name
        (``"nbl-symbolic"``, ``"nbl-sampled"``, ``"dpll"``, ``"cdcl"``,
        ``"walksat"``, ``"gsat"``, ``"brute-force"``, ``"hybrid"``, ...;
        see :func:`known_solver_specs`). The default ``"portfolio"`` runs
        ``"nbl-symbolic"`` on a formula within its variable limit
        (:data:`EXPONENTIAL_LIMITS`) and ``"cdcl"`` on any larger one,
        exactly as a job naming that solver would.
    samples:
        Sample budget per check for the sampled NBL engine.
    carrier:
        Carrier family name for the sampled NBL engine.
    timeout:
        Optional per-job wall-clock budget in seconds. Enforced
        cooperatively by the classical solvers. A multi-worker batch
        (:meth:`repro.runtime.pool.JobExecutor.run`) also gives up on a
        worker after a parent-side grace window; the solve service has no
        such window, so there a job that overruns keeps its executor slot
        until its worker returns. The NBL engines check it
        only before they start and are bounded differently: the sampled
        engine by its ``samples`` budget, the symbolic engine by the pool's
        variable limit (:data:`EXPONENTIAL_LIMITS`)
        — so pick ``samples``, not ``timeout``, to cap sampled-NBL jobs in
        a serial pool. With ``preprocess`` one budget covers the
        pipeline and the residual solve.
    assumptions:
        DIMACS-signed literals that must hold for this job only (they are
        not part of the formula). Canonicalised to a sorted tuple; an
        ``UNSAT`` outcome then means "unsatisfiable under the
        assumptions", and the cache keys on ``(fingerprint, assumptions)``
        so jobs for the same formula under different assumption sets never
        share an answer.
    seed:
        Explicit per-job seed. ``None`` (the default) derives a
        deterministic seed from the pool's master seed, the job id and the
        formula fingerprint — see :func:`repro.runtime.pool.derive_job_seed`.
    preprocess:
        Run the :mod:`repro.preprocess` preprocessing pipeline (with the
        assumption variables frozen) before dispatching to the solver; the
        solver then sees the reduced formula and SAT models are
        reconstructed over the original variables. A ``cdcl`` job without
        assumptions skips the pipeline and searches the formula as given
        (never slower on the benchmark workloads). The cache key is the
        job's own :attr:`cache_key` either way, so a cached verdict always
        answers the formula that was asked.
    proof:
        Optional file path to record a DRAT proof of this job into (a
        path, not a log object, so the job stays picklable across the
        worker-process boundary). Requires a proof-capable solver spec —
        a classical registry name — and is rejected for the NBL engine
        specs and the default ``"portfolio"``, whose small formulas go to
        the NBL engine, which cannot emit derivations. With
        ``preprocess`` the pipeline's elimination lines come first and
        the residual solver's lines are translated back into the original
        numbering, so the file checks against the job's input formula.
    """

    formula: CNFFormula
    job_id: str = ""
    label: str = ""
    solver: str = PORTFOLIO_SPEC
    samples: int = 200_000
    carrier: str = "uniform"
    timeout: Optional[float] = None
    assumptions: tuple[int, ...] = ()
    seed: Optional[int] = None
    preprocess: bool = False
    proof: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.formula, CNFFormula):
            raise RuntimeSubsystemError(
                f"SolveJob.formula must be a CNFFormula, got {type(self.formula).__name__}"
            )
        if self.samples <= 0:
            raise RuntimeSubsystemError(
                f"SolveJob.samples must be positive, got {self.samples}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise RuntimeSubsystemError(
                f"SolveJob.timeout must be positive, got {self.timeout}"
            )
        self.assumptions = _normalise_assumptions(self.assumptions)
        for lit in self.assumptions:
            if abs(lit) > self.formula.num_variables:
                raise RuntimeSubsystemError(
                    f"assumption {lit} mentions x{abs(lit)} beyond the "
                    f"formula's {self.formula.num_variables} variables"
                )
        if self.proof is not None and self.solver in NO_PROOF_SPECS:
            raise RuntimeSubsystemError(
                f"SolveJob(proof=...) requires a classical solver spec; "
                f"{self.solver!r} cannot emit DRAT derivations"
            )
        if not self.job_id:
            self.job_id = f"job-{self.formula.fingerprint()[:16]}"

    @property
    def fingerprint(self) -> str:
        """Canonical fingerprint of the job's formula."""
        return self.formula.fingerprint()

    @property
    def cache_key(self) -> str:
        """Result-cache key: the fingerprint plus canonical assumptions."""
        return solve_cache_key(self.fingerprint, self.assumptions)


@dataclass
class SolveOutcome:
    """The transportable result of one :class:`SolveJob`.

    Attributes
    ----------
    job_id / label / fingerprint / assumptions:
        Copied from the job so outcomes are self-identifying (and so the
        cache can reconstruct the ``(fingerprint, assumptions)`` key).
    status:
        ``"SAT"``, ``"UNSAT"``, ``"UNKNOWN"`` or ``"ERROR"``.
    solver:
        The solver spec the job requested.
    winner:
        The concrete engine/solver that produced the answer: ``solver``
        itself, the one the default ``"portfolio"`` spec selected, or
        ``"preprocess"`` when the pipeline decided the job alone.
    assignment:
        Satisfying assignment as DIMACS-signed integers when SAT.
    verified:
        ``True`` when the answer was checked (SAT models are evaluated
        against the formula; UNSAT verdicts from exact/complete engines).
    elapsed_seconds / samples_used:
        Work accounting for the job.
    from_cache:
        ``True`` when the outcome was served by the result cache.
    timed_out:
        ``True`` when the job's wall-clock budget expired.
    error:
        Exception text when ``status == "ERROR"``.
    core:
        When the verdict is UNSAT under assumptions, a subset of the
        assumptions that is UNSAT together with the formula; the empty
        tuple when the refutation used no assumption; ``None`` otherwise
        (mirrors :attr:`repro.solvers.base.SolverResult.core`).
    proof:
        Path of the DRAT proof file the job wrote (``""`` when no proof
        was requested). Cached replays of the outcome keep the path of the
        run that produced the verdict.
    """

    job_id: str
    status: str
    solver: str
    label: str = ""
    fingerprint: str = ""
    assumptions: tuple[int, ...] = ()
    winner: str = ""
    assignment: Optional[tuple[int, ...]] = None
    verified: bool = False
    elapsed_seconds: float = 0.0
    samples_used: int = 0
    from_cache: bool = False
    timed_out: bool = False
    error: str = ""
    core: Optional[tuple[int, ...]] = None
    proof: str = ""

    @property
    def is_definitive(self) -> bool:
        """``True`` for a verified SAT/UNSAT answer (the cacheable ones)."""
        return self.status in ("SAT", "UNSAT") and self.verified

    @property
    def cache_key(self) -> str:
        """Result-cache key (empty when the outcome has no fingerprint)."""
        if not self.fingerprint:
            return ""
        return solve_cache_key(self.fingerprint, self.assumptions)

    def assignment_dict(self) -> Optional[dict[int, bool]]:
        """The SAT model as a ``variable -> bool`` mapping (``None`` otherwise)."""
        if self.assignment is None:
            return None
        return {abs(v): v > 0 for v in self.assignment}

    def to_dict(self) -> dict:
        """JSON-serialisable encoding (used by the persistent cache)."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "solver": self.solver,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "assumptions": list(self.assumptions),
            "winner": self.winner,
            "assignment": list(self.assignment) if self.assignment is not None else None,
            "verified": self.verified,
            "elapsed_seconds": self.elapsed_seconds,
            "samples_used": self.samples_used,
            "timed_out": self.timed_out,
            "error": self.error,
            "core": list(self.core) if self.core is not None else None,
            "proof": self.proof,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolveOutcome":
        """Inverse of :meth:`to_dict` (``from_cache`` always starts False).

        Unknown keys are ignored, so cache and WAL records written by
        older versions, with their per-racer timing maps, still load.
        """
        assignment = data.get("assignment")
        return cls(
            job_id=data["job_id"],
            status=data["status"],
            solver=data["solver"],
            label=data.get("label", ""),
            fingerprint=data.get("fingerprint", ""),
            assumptions=tuple(data.get("assumptions", ())),
            winner=data.get("winner", ""),
            assignment=tuple(assignment) if assignment is not None else None,
            verified=data.get("verified", False),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            samples_used=data.get("samples_used", 0),
            timed_out=data.get("timed_out", False),
            error=data.get("error", ""),
            core=tuple(data["core"]) if data.get("core") is not None else None,
            proof=data.get("proof", ""),
        )

    def copy(self, **overrides) -> "SolveOutcome":
        """An independent copy (dict round-trip) with fields overridden.

        The round-trip keeps this the single place that defines what a
        transported outcome carries; ``from_cache`` resets to ``False``
        unless overridden.
        """
        duplicate = SolveOutcome.from_dict(self.to_dict())
        for key, value in overrides.items():
            setattr(duplicate, key, value)
        return duplicate

    def __str__(self) -> str:
        origin = self.label or self.job_id
        suffix = " [cache]" if self.from_cache else ""
        winner = f" by {self.winner}" if self.winner else ""
        return f"{origin}: {self.status}{winner}{suffix}"
