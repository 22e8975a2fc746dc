"""The preprocessing pipeline: SatELite-style simplification to a fixpoint.

:class:`Preprocessor` runs unit propagation, pure-literal elimination,
subsumption + self-subsuming resolution, blocked clause elimination (BCE)
and bounded variable elimination (BVE, occurrence-indexed with a
clause-growth budget) in rounds until nothing changes. The result is a
:class:`PreprocessResult` carrying the reduced (compactly renumbered)
formula, the old→new variable map, and a
:class:`~repro.preprocess.reconstruction.ReconstructionStack` that extends
any model of the reduced formula back to a model of the original.

Frozen variables (:meth:`Preprocessor.preprocess`'s ``frozen`` argument)
are exempt from every model-changing technique, so callers that later
constrain them externally — incremental sessions posting assumptions, the
batch runtime solving under per-job assumption literals — stay sound: the
reduced formula is equisatisfiable with the original under *any* additional
constraint over the frozen variables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.exceptions import PreprocessError
from repro.preprocess.occurrence import ClauseDatabase
from repro.preprocess.reconstruction import ReconstructionStack
from repro.telemetry import instrument as _telemetry
from repro.utils.gc_pause import paused_gc

#: Technique names, in pipeline order. ``subsumption`` covers both plain
#: subsumption and self-subsuming resolution (clause strengthening).
TECHNIQUES = ("units", "pure", "subsumption", "bce", "bve")

#: :attr:`PreprocessResult.status` values. ``REDUCED`` means a residual
#: formula remains to be solved; ``SAT``/``UNSAT`` mean preprocessing alone
#: decided the instance.
REDUCED = "REDUCED"
SAT = "SAT"
UNSAT = "UNSAT"


class _Conflict(Exception):
    """Internal: preprocessing derived the empty clause."""


@dataclass
class PreprocessStats:
    """Work and reduction counters of one preprocessing run."""

    original_variables: int = 0
    original_clauses: int = 0
    original_literals: int = 0
    reduced_variables: int = 0
    reduced_clauses: int = 0
    reduced_literals: int = 0
    rounds: int = 0
    #: ``True`` when a ``deadline`` expired before the fixpoint was reached
    #: (the returned reduction is still sound, just less simplified).
    interrupted: bool = False
    tautologies_removed: int = 0
    units_propagated: int = 0
    pure_literals: int = 0
    subsumed_clauses: int = 0
    strengthened_literals: int = 0
    blocked_clauses: int = 0
    eliminated_variables: int = 0
    elapsed_seconds: float = 0.0

    @property
    def clause_reduction(self) -> float:
        """Fraction of the original clauses removed (0.0 for an empty input)."""
        if self.original_clauses == 0:
            return 0.0
        return 1.0 - self.reduced_clauses / self.original_clauses

    @property
    def variable_reduction(self) -> float:
        """Fraction of the original variables removed (0.0 for no variables)."""
        if self.original_variables == 0:
            return 0.0
        return 1.0 - self.reduced_variables / self.original_variables

    def to_text(self) -> str:
        """Human-readable multi-line summary (the CLI's stats output)."""
        return "\n".join(
            [
                f"clauses   {self.original_clauses} -> {self.reduced_clauses} "
                f"({self.clause_reduction:.0%} removed)",
                f"variables {self.original_variables} -> {self.reduced_variables} "
                f"({self.variable_reduction:.0%} removed)",
                f"rounds    {self.rounds}",
                f"work      units={self.units_propagated} "
                f"pure={self.pure_literals} subsumed={self.subsumed_clauses} "
                f"strengthened={self.strengthened_literals} "
                f"blocked={self.blocked_clauses} "
                f"eliminated={self.eliminated_variables} "
                f"tautologies={self.tautologies_removed}",
                f"elapsed   {self.elapsed_seconds:.3f}s",
            ]
        )


@dataclass
class PreprocessResult:
    """Everything a caller needs to solve the reduced instance and map back.

    Attributes
    ----------
    status:
        ``"REDUCED"``, ``"SAT"`` or ``"UNSAT"`` (the latter two mean
        preprocessing decided the instance outright).
    formula:
        The reduced formula in *compact* variable numbering (``1..k``).
        Empty for ``SAT``; contains the empty clause for ``UNSAT``.
    variable_map:
        Mapping ``original variable -> reduced variable`` for every
        surviving variable (frozen variables always survive).
    stack:
        The model reconstruction stack (see :meth:`reconstruct`).
    original_num_variables:
        Variable universe of the input formula.
    frozen:
        The frozen variable set the run was given.
    stats:
        Reduction and work counters.
    """

    status: str
    formula: CNFFormula
    variable_map: Dict[int, int]
    stack: ReconstructionStack
    original_num_variables: int
    frozen: frozenset[int] = frozenset()
    stats: PreprocessStats = field(default_factory=PreprocessStats)

    @property
    def decided(self) -> bool:
        """``True`` when preprocessing alone settled SAT/UNSAT."""
        return self.status in (SAT, UNSAT)

    def map_assumptions(self, assumptions: Iterable[int]) -> tuple[int, ...]:
        """Translate assumption literals into the reduced numbering.

        Every assumption variable must have survived preprocessing — pass
        them as ``frozen`` to guarantee it — otherwise
        :class:`PreprocessError` is raised.
        """
        mapped = []
        for lit in assumptions:
            variable = abs(int(lit))
            if variable not in self.variable_map:
                raise PreprocessError(
                    f"assumption {lit} mentions x{variable}, which was "
                    "eliminated during preprocessing (freeze it first)"
                )
            mapped.append(
                self.variable_map[variable] if lit > 0 else -self.variable_map[variable]
            )
        return tuple(mapped)

    def reconstruct(
        self, reduced_model: Optional[Mapping[int, bool]] = None
    ) -> Assignment:
        """Extend a model of the reduced formula to the original formula.

        Parameters
        ----------
        reduced_model:
            ``reduced variable -> bool`` mapping (an :class:`Assignment`
            works too). May be ``None``/empty when the reduced formula has
            no clauses; unassigned surviving variables default to False.

        Returns
        -------
        Assignment
            A complete assignment over the original variable universe that
            satisfies the original formula whenever ``reduced_model``
            satisfies the reduced one.
        """
        if self.status == UNSAT:
            raise PreprocessError("cannot reconstruct a model of an UNSAT instance")
        values: Dict[int, bool] = {}
        if reduced_model is not None:
            known = set(self.variable_map.values())
            for variable in reduced_model:
                if variable not in known:
                    raise PreprocessError(
                        f"reduced model mentions unknown variable x{variable}"
                    )
        for original, reduced in self.variable_map.items():
            value = False if reduced_model is None else reduced_model.get(reduced)
            values[original] = bool(value) if value is not None else False
        extended = self.stack.extend(values)
        for variable in range(1, self.original_num_variables + 1):
            extended.setdefault(variable, False)
        return Assignment(extended)


class Preprocessor:
    """Configurable fixpoint pipeline over the classic simplifications.

    Parameters
    ----------
    techniques:
        Subset of :data:`TECHNIQUES` to run (default: all, in order).
    max_rounds:
        Upper bound on full pipeline rounds (a safety valve; the pipeline
        normally reaches its fixpoint much earlier).
    bve_growth:
        How many clauses beyond the removed count a variable elimination
        may add (0 = SatELite's classic "never grow" rule).
    bve_occurrence_limit:
        Skip BVE for variables occurring more often than this in either
        polarity (bounds the resolvent computation on dense variables).
    """

    def __init__(
        self,
        techniques: Optional[Sequence[str]] = None,
        max_rounds: int = 20,
        bve_growth: int = 0,
        bve_occurrence_limit: int = 16,
    ) -> None:
        chosen = tuple(techniques) if techniques is not None else TECHNIQUES
        unknown = [name for name in chosen if name not in TECHNIQUES]
        if unknown:
            raise PreprocessError(
                f"unknown technique(s) {unknown}; available: {list(TECHNIQUES)}"
            )
        if max_rounds <= 0:
            raise PreprocessError(f"max_rounds must be positive, got {max_rounds}")
        if bve_growth < 0:
            raise PreprocessError(f"bve_growth must be >= 0, got {bve_growth}")
        if bve_occurrence_limit <= 0:
            raise PreprocessError(
                f"bve_occurrence_limit must be positive, got {bve_occurrence_limit}"
            )
        self.techniques = chosen
        self.max_rounds = max_rounds
        self.bve_growth = bve_growth
        self.bve_occurrence_limit = bve_occurrence_limit

    def __repr__(self) -> str:
        return (
            f"Preprocessor(techniques={list(self.techniques)}, "
            f"max_rounds={self.max_rounds}, bve_growth={self.bve_growth}, "
            f"bve_occurrence_limit={self.bve_occurrence_limit})"
        )

    # -- entry point ---------------------------------------------------------
    @staticmethod
    def _expired(deadline: Optional[float]) -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def preprocess(
        self,
        formula: CNFFormula,
        frozen: Iterable[int] = (),
        deadline: Optional[float] = None,
        proof=None,
    ) -> PreprocessResult:
        """Simplify ``formula`` to a fixpoint.

        Parameters
        ----------
        formula:
            The input CNF instance.
        frozen:
            Variables that must survive into the reduced formula untouched
            (no technique may eliminate them or drop clauses on their
            account). Assumption variables of a later solve belong here.
        deadline:
            Optional ``time.monotonic()`` value after which simplification
            stops cooperatively: the pipeline checks it at the start of
            each round and before each expensive pass (subsumption, BCE,
            BVE), so an expired budget overshoots by at most one technique
            pass.
            The partially-simplified result is sound — every state between
            technique passes is equisatisfiable with reconstruction —
            and is flagged via :attr:`PreprocessStats.interrupted`.
        proof:
            Optional :class:`~repro.proofs.ProofLog` to record DRAT lines
            into: every strengthening and every BVE resolvent becomes an
            addition (emitted while its antecedent clauses are still
            alive, so each line is RUP), every removed clause a deletion.
            Lines use the *original* variable numbering — the compact
            renumbering of :meth:`_build_result` happens after all
            emission — so a refutation extends seamlessly into a proof
            checkable against the input formula.
        """
        trace_span = _telemetry.span("preprocess")
        started = time.perf_counter()
        # The clause database allocates a set per clause and per occurrence
        # list in one burst; see repro.utils.gc_pause.
        with trace_span, paused_gc():
            frozen_set = frozenset(abs(int(v)) for v in frozen)
            for variable in frozen_set:
                if variable <= 0:
                    raise PreprocessError(f"invalid frozen variable {variable}")
            stats = PreprocessStats(
                original_variables=formula.num_variables,
                original_clauses=formula.num_clauses,
                original_literals=formula.num_literals,
            )
            if trace_span.recording:
                trace_span.set(
                    variables=formula.num_variables,
                    clauses=formula.num_clauses,
                    frozen=len(frozen_set),
                )
            db, stats.tautologies_removed = ClauseDatabase.from_formula(formula)
            stack = ReconstructionStack()
            conflict = False
            try:
                if db.has_empty_clause():
                    raise _Conflict()
                while stats.rounds < self.max_rounds:
                    if self._expired(deadline):
                        stats.interrupted = True
                        break
                    stats.rounds += 1
                    changed = False
                    if "units" in self.techniques:
                        changed |= self._propagate_units(
                            db, stack, stats, frozen_set, proof
                        )
                    if "pure" in self.techniques:
                        changed |= self._eliminate_pure(
                            db, stack, stats, frozen_set, proof
                        )
                    if self._expired(deadline):
                        stats.interrupted = True
                        break
                    if "subsumption" in self.techniques:
                        changed |= self._subsume_and_strengthen(db, stats, proof)
                    if self._expired(deadline):
                        stats.interrupted = True
                        break
                    if "bce" in self.techniques:
                        changed |= self._eliminate_blocked(
                            db, stack, stats, frozen_set, proof
                        )
                    if self._expired(deadline):
                        stats.interrupted = True
                        break
                    if "bve" in self.techniques:
                        changed |= self._eliminate_variables(
                            db, stack, stats, frozen_set, proof
                        )
                    if not changed:
                        break
            except _Conflict:
                conflict = True

            result = self._build_result(
                db, stack, stats, formula.num_variables, frozen_set, conflict
            )
            stats.elapsed_seconds = time.perf_counter() - started
            if trace_span.recording:
                trace_span.set(
                    status=result.status,
                    rounds=stats.rounds,
                    reduced_variables=stats.reduced_variables,
                    reduced_clauses=stats.reduced_clauses,
                    interrupted=stats.interrupted,
                    elapsed_seconds=stats.elapsed_seconds,
                )
        if _telemetry.active():
            _telemetry.emit("repro_preprocess_runs_total", status=result.status)
            _telemetry.emit(
                "repro_preprocess_clauses_removed_total",
                max(0, stats.original_clauses - stats.reduced_clauses),
            )
            _telemetry.emit(
                "repro_preprocess_clause_reduction_ratio", stats.clause_reduction
            )
            _telemetry.emit("repro_preprocess_wall_seconds", stats.elapsed_seconds)
        return result

    # -- techniques ----------------------------------------------------------
    #
    # Each pass keeps the order of a full rescan but skips the checks the
    # database's change record proves idle (see repro.preprocess.occurrence),
    # so the database evolves exactly as it would under a full rescan.

    def _propagate_units(
        self,
        db: ClauseDatabase,
        stack: ReconstructionStack,
        stats: PreprocessStats,
        frozen: frozenset[int],
        proof=None,
    ) -> bool:
        changed = False
        clauses = db._clauses
        queue = [
            cid
            for cid in db.alive_ids()
            if len(clauses[cid]) == 1 and abs(next(iter(clauses[cid]))) not in frozen
        ]
        while queue:
            cid = queue.pop()
            literals = clauses[cid]
            if literals is None or len(literals) != 1:
                continue
            lit = next(iter(literals))
            if abs(lit) in frozen:
                continue
            stack.push_forced(lit)
            stats.units_propagated += 1
            changed = True
            # Strengthen before deleting the satisfied clauses: the unit
            # clause itself is among the satisfied ones, and each shrunk
            # clause is RUP only while both the unit and the unshrunk
            # original are still part of the proof's active set.
            for shrink in list(db.occurrences(-lit)):
                old = clauses[shrink]
                shrunk = db.strengthen(shrink, -lit)
                if proof is not None:
                    proof.add(shrunk)
                    proof.delete(old)
                if not shrunk:
                    raise _Conflict()
                if len(shrunk) == 1 and abs(next(iter(shrunk))) not in frozen:
                    queue.append(shrink)
            for satisfied in list(db.occurrences(lit)):
                removed = db.remove(satisfied)
                if proof is not None:
                    proof.delete(removed)
        return changed

    def _eliminate_pure(
        self,
        db: ClauseDatabase,
        stack: ReconstructionStack,
        stats: PreprocessStats,
        frozen: frozenset[int],
        proof=None,
    ) -> bool:
        changed = False
        queue = sorted(db.variables() - frozen)
        while queue:
            variable = queue.pop()
            positive = db.occurrences(variable)
            negative = db.occurrences(-variable)
            if bool(positive) == bool(negative):
                continue  # absent, or occurs in both polarities
            pure = variable if positive else -variable
            stack.push_forced(pure)
            stats.pure_literals += 1
            changed = True
            freed: Set[int] = set()
            for cid in list(db.occurrences(pure)):
                if proof is not None:
                    proof.delete(db.clause(cid))
                freed |= db.remove(cid)
            # Removing those clauses may have made further variables pure.
            queue.extend(
                sorted({abs(lit) for lit in freed} - frozen - {variable})
            )
        return changed

    def _subsume_and_strengthen(
        self, db: ClauseDatabase, stats: PreprocessStats, proof=None
    ) -> bool:
        changed = False
        clauses = db._clauses
        occ = db._occ
        due = db._begin_subsumption()
        # Forward subsumption, smallest clauses first: C subsumes D ⊇ C.
        # Nothing is strengthened or added here, so which clauses are due
        # is fixed for the whole loop.
        forward = sorted(
            (cid for cid in db.alive_ids() if due(cid)),
            key=lambda c: len(clauses[c]),
        )
        for cid in forward:
            literals = clauses[cid]
            if literals is None:
                continue
            if not literals:
                raise _Conflict()
            pivot = min(literals, key=lambda lit: len(occ[lit]))
            for other in list(occ[pivot]):
                if other == cid:
                    continue
                candidate = clauses[other]
                if candidate is not None and literals <= candidate:
                    if proof is not None:
                        proof.delete(candidate)
                    db.remove(other)
                    stats.subsumed_clauses += 1
                    changed = True
        # Self-subsuming resolution: C = R ∪ {l}, D ⊇ R ∪ {¬l} → drop ¬l
        # from D (equivalence-preserving, so no reconstruction step). C is
        # not a tautology, so ¬l ∉ R and "R ⊆ D" is the whole test (the
        # subset test rejects a D shorter than R first).
        for cid in db.alive_ids():
            literals = clauses[cid]
            if literals is None or not due(cid):
                continue
            for lit in literals:
                rest = literals - {lit}
                for other in list(occ.get(-lit, ())):
                    partner = clauses[other]
                    if partner is None or not rest <= partner:
                        continue
                    shrunk = db.strengthen(other, -lit)
                    if proof is not None:
                        # The shrunk clause is the resolvent of C and the
                        # old D on ``lit``; both are still alive, so the
                        # addition is RUP when emitted here.
                        proof.add(shrunk)
                        proof.delete(partner)
                    stats.strengthened_literals += 1
                    changed = True
                    if not shrunk:
                        raise _Conflict()
        return changed

    def _eliminate_blocked(
        self,
        db: ClauseDatabase,
        stack: ReconstructionStack,
        stats: PreprocessStats,
        frozen: frozenset[int],
        proof=None,
    ) -> bool:
        changed = False
        clauses = db._clauses
        for cid in db.alive_ids():
            literals = clauses[cid]
            if literals is None:
                continue
            lit = db._blocking_literal(cid, frozen)
            if lit is None:
                continue
            stack.push_blocked(literals, lit)
            stats.blocked_clauses += 1
            if proof is not None:
                proof.delete(literals)
            db.remove(cid)
            changed = True
        return changed

    def _eliminate_variables(
        self,
        db: ClauseDatabase,
        stack: ReconstructionStack,
        stats: PreprocessStats,
        frozen: frozenset[int],
        proof=None,
    ) -> bool:
        changed = False
        clauses = db._clauses
        occ = db._occ
        candidates = sorted(
            db.variables() - frozen,
            key=lambda v: len(occ.get(v, ())) + len(occ.get(-v, ())),
        )
        for variable in candidates:
            if not db._retry_elimination(variable):
                continue  # no clause around it changed since the last try
            positive = list(occ.get(variable, ()))
            negative = list(occ.get(-variable, ()))
            if not positive or not negative:
                continue  # absent or pure — the pure pass owns those
            if (
                len(positive) > self.bve_occurrence_limit
                or len(negative) > self.bve_occurrence_limit
            ):
                continue
            bound = len(positive) + len(negative) + self.bve_growth
            sides = [clauses[nid] - {-variable} for nid in negative]
            # Both parents are non-tautological, so a resolvent is a
            # tautology exactly when one side clashes with the other.
            clashes = [frozenset(-lit for lit in side) for side in sides]
            resolvents: Set[frozenset[int]] = set()
            for pid in positive:
                own = clauses[pid] - {variable}
                for side, clash in zip(sides, clashes):
                    if own.isdisjoint(clash):
                        resolvents.add(own | side)
                if len(resolvents) > bound:
                    break
            if len(resolvents) > bound:
                continue
            removed = [clauses[cid] for cid in positive + negative]
            if proof is not None:
                # Resolvent additions go out while both parents are still
                # alive (each is RUP via its generating pair); only then
                # the parent deletions.
                for resolvent in sorted(
                    resolvents, key=lambda r: sorted(r, key=abs)
                ):
                    proof.add(resolvent)
            if any(not resolvent for resolvent in resolvents):
                raise _Conflict()
            stack.push_eliminated(variable, removed)
            stats.eliminated_variables += 1
            changed = True
            for cid in positive + negative:
                db.remove(cid)
            if proof is not None:
                for literals in removed:
                    proof.delete(literals)
            for resolvent in resolvents:
                db.add(resolvent)
        return changed

    # -- result assembly -----------------------------------------------------
    def _build_result(
        self,
        db: ClauseDatabase,
        stack: ReconstructionStack,
        stats: PreprocessStats,
        original_num_variables: int,
        frozen: frozenset[int],
        conflict: bool,
    ) -> PreprocessResult:
        if conflict:
            reduced = CNFFormula([()], 0)
            stats.reduced_variables = 0
            stats.reduced_clauses = 1
            stats.reduced_literals = 0
            return PreprocessResult(
                UNSAT, reduced, {}, stack, original_num_variables, frozen, stats
            )
        survivors = sorted(db.variables() | frozen)
        variable_map = {old: new for new, old in enumerate(survivors, start=1)}
        clauses = [
            [variable_map[lit] if lit > 0 else -variable_map[-lit] for lit in literals]
            for literals in db.iter_clauses()
        ]
        reduced = CNFFormula(clauses, len(survivors))
        stats.reduced_variables = reduced.num_variables
        stats.reduced_clauses = reduced.num_clauses
        stats.reduced_literals = reduced.num_literals
        status = SAT if reduced.num_clauses == 0 else REDUCED
        return PreprocessResult(
            status, reduced, variable_map, stack, original_num_variables, frozen, stats
        )


def preprocess_formula(
    formula: CNFFormula, frozen: Iterable[int] = (), **options
) -> PreprocessResult:
    """One-shot convenience wrapper: ``Preprocessor(**options).preprocess(...)``."""
    return Preprocessor(**options).preprocess(formula, frozen=frozen)
