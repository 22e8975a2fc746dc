"""Occurrence-indexed mutable clause database for the preprocessing pipeline.

The rest of the library works on the immutable
:class:`~repro.cnf.formula.CNFFormula`; preprocessing techniques instead
need to remove, strengthen and add clauses thousands of times, and to ask
"which clauses contain literal ``l``" in O(1). :class:`ClauseDatabase` is
that mutable view: clauses are stored as frozensets of DIMACS-signed
integers under stable integer ids, with one occurrence list per literal.
Dead clauses keep their id (occurrence lists drop them eagerly), so
technique loops can hold id snapshots safely while the database changes
under them.

The database also records *what changed*, so the fixpoint loop of
:class:`~repro.preprocess.Preprocessor` re-examines only the clauses and
variables whose neighbourhood changed since their last check. A running
change counter (the epoch) advances on every mutation; each clause keeps
the epoch of its addition or last strengthening, each variable the epoch
of the last change to any clause containing it. Three skip rules read
that record, and each one skips only checks that provably find nothing:

* **Variable elimination** retries a variable only if a clause containing
  it (in either polarity) was added, removed or strengthened since its
  last try: otherwise its occurrence lists, and so its verdict, are the
  same.
* **Subsumption and self-subsumption** re-examine a clause only if it was
  added or strengthened since the previous pass began, or if it subsumes
  or can strengthen a clause added since then (found from the occurrence
  lists of the new clauses). Removing or shrinking other clauses never
  creates a new subsumption.
* **Blocked-clause elimination** remembers, per clause and literal, one
  partner whose resolvent is not a tautology. While the clause is
  unchanged and that partner is alive and still contains the negated
  literal, the clause is still not blocked on that literal.

Every check that runs does exactly what a full rescan would do at that
point, and every skipped one would have changed nothing, so the reduced
formula, the reconstruction stack, the statistics and the DRAT lines are
identical to a full rescan every round. The initial load records nothing:
the first pass examines everything anyway. The bookkeeping lives in flat
``array('q')`` storage to keep its memory small.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterable, Iterator, Optional, Set

from repro.cnf.formula import CNFFormula, is_tautology
from repro.exceptions import PreprocessError


class ClauseDatabase:
    """Clauses as frozensets of DIMACS ints, plus a literal-occurrence index.

    Ids are assigned densely in insertion order and never reused; a removed
    clause's slot is set to ``None``. Tautological clauses are rejected at
    :meth:`add` (they constrain nothing and would confuse the blocked-clause
    check), and duplicate literals disappear via the set representation.

    The pipeline's hot loops read ``_clauses`` (literal sets by id, ``None``
    once dead) and ``_occ`` (literal -> alive ids) directly; every mutation
    goes through :meth:`add`, :meth:`remove` and :meth:`strengthen`, which
    keep the change record up to date.
    """

    def __init__(self) -> None:
        self._clauses: list[Optional[frozenset[int]]] = []
        self._occ: Dict[int, Set[int]] = {}
        self._alive = 0
        # Change record (see the module docstring).
        self._epoch = 0
        self._clause_epoch = array("q")  # by clause id
        self._var_epoch = array("q", [0])  # by variable
        self._var_tried = array("q", [-1])  # by variable: epoch of the last BVE try
        self._subsumption_epoch = -1  # epoch when the last subsumption pass began
        self._subsumption_first_new = 0  # first id that pass has not seen
        # Blocked-clause partners: the clause's slots start at
        # ``_partner_at[cid]`` (-1: none yet), one per literal in the
        # frozenset's iteration order; -1 marks "no partner known".
        self._partner_at = array("q")
        self._partners = array("q")

    @classmethod
    def from_formula(cls, formula: CNFFormula) -> tuple["ClauseDatabase", int]:
        """Load a formula; returns the database and the tautology-drop count."""
        db = cls()
        clauses = db._clauses
        occ = db._occ
        tautologies = 0
        # One pass, without add()'s checks: the formula already validated
        # every literal, and the first pass examines everything, so the
        # load records no changes.
        for clause in formula:
            lits = frozenset(clause)
            if is_tautology(lits):
                tautologies += 1
                continue
            cid = len(clauses)
            clauses.append(lits)
            for lit in lits:
                occ.setdefault(lit, set()).add(cid)
        db._alive = len(clauses)
        db._var_epoch = array("q", [0]) * (formula.num_variables + 1)
        db._var_tried = array("q", [-1]) * (formula.num_variables + 1)
        db._clause_epoch = array("q", [0]) * len(clauses)
        db._partner_at = array("q", [-1]) * len(clauses)
        return db, tautologies

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return self._alive

    def is_alive(self, cid: int) -> bool:
        """``True`` while clause ``cid`` is still part of the database."""
        return self._clauses[cid] is not None

    def clause(self, cid: int) -> frozenset[int]:
        """The literal set of clause ``cid`` (must be alive)."""
        literals = self._clauses[cid]
        if literals is None:
            raise PreprocessError(f"clause {cid} is dead")
        return literals

    def alive_ids(self) -> list[int]:
        """Snapshot of the ids of all alive clauses, in insertion order."""
        return [cid for cid, lits in enumerate(self._clauses) if lits is not None]

    def occurrences(self, lit: int) -> Set[int]:
        """The ids of alive clauses containing ``lit`` (a live set — copy
        before mutating the database while iterating)."""
        return self._occ.get(lit, set())

    def variables(self) -> set[int]:
        """Variables occurring (in either polarity) in at least one alive clause."""
        return {abs(lit) for lit, ids in self._occ.items() if ids}

    def iter_clauses(self) -> Iterator[frozenset[int]]:
        """Iterate the literal sets of all alive clauses."""
        for literals in self._clauses:
            if literals is not None:
                yield literals

    def has_empty_clause(self) -> bool:
        """``True`` when an alive clause is empty (the database is UNSAT)."""
        return any(not literals for literals in self.iter_clauses())

    # -- mutations -----------------------------------------------------------
    def add(self, literals: Iterable[int]) -> Optional[int]:
        """Insert a clause; returns its id, or ``None`` for a tautology."""
        lits = frozenset(int(lit) for lit in literals)
        if any(lit == 0 for lit in lits):
            raise PreprocessError("0 is not a valid clause literal")
        if is_tautology(lits):
            return None
        cid = len(self._clauses)
        self._clauses.append(lits)
        for lit in lits:
            self._occ.setdefault(lit, set()).add(cid)
        self._alive += 1
        top = max((abs(lit) for lit in lits), default=0)
        if top >= len(self._var_epoch):
            grow = top + 1 - len(self._var_epoch)
            self._var_epoch.extend(array("q", [0]) * grow)
            self._var_tried.extend(array("q", [-1]) * grow)
        self._epoch += 1
        self._clause_epoch.append(self._epoch)
        self._partner_at.append(-1)
        self._touch(lits)
        return cid

    def remove(self, cid: int) -> frozenset[int]:
        """Delete clause ``cid``; returns its literal set."""
        literals = self.clause(cid)
        for lit in literals:
            self._occ[lit].discard(cid)
        self._clauses[cid] = None
        self._alive -= 1
        self._epoch += 1
        self._touch(literals)
        return literals

    def strengthen(self, cid: int, lit: int) -> frozenset[int]:
        """Remove ``lit`` from clause ``cid``; returns the shrunken set.

        Shrinking to the empty set is allowed — it is how conflicting frozen
        unit clauses surface — and the caller checks for it.
        """
        literals = self.clause(cid)
        if lit not in literals:
            raise PreprocessError(f"literal {lit} not in clause {cid}")
        self._occ[lit].discard(cid)
        shrunk = literals - {lit}
        self._clauses[cid] = shrunk
        self._epoch += 1
        self._clause_epoch[cid] = self._epoch
        self._partner_at[cid] = -1
        self._touch(literals)
        return shrunk

    # -- change record -------------------------------------------------------
    def _touch(self, literals: frozenset[int]) -> None:
        """Stamp the variables of a changed clause with the current epoch."""
        epoch = self._epoch
        var_epoch = self._var_epoch
        for lit in literals:
            var_epoch[abs(lit)] = epoch

    def _retry_elimination(self, variable: int) -> bool:
        """Whether elimination of ``variable`` must be tried again: ``True``
        unless no clause containing it changed since the last try. Records
        this try."""
        if self._var_epoch[variable] <= self._var_tried[variable]:
            return False
        self._var_tried[variable] = self._epoch
        return True

    def _begin_subsumption(self) -> Callable[[int], bool]:
        """Start a subsumption pass; returns the test for "clause ``cid``
        must be examined".

        That is every clause on the first pass. Later, it is a clause added
        or strengthened since the previous pass began (also during this
        pass), or a clause ``C`` that subsumes or can strengthen a clause
        ``D`` added since then: ``C - D`` is empty, or a single literal
        whose negation is in ``D``.
        """
        since = self._subsumption_epoch
        first_new = self._subsumption_first_new
        self._subsumption_epoch = self._epoch
        self._subsumption_first_new = len(self._clauses)
        if since < 0:
            return lambda cid: True
        clauses = self._clauses
        occ = self._occ
        partners: Set[int] = set()
        for did in range(first_new, len(clauses)):
            new = clauses[did]
            if new is None:
                continue
            for lit in new:
                # C ⊆ D: C shares lit with D.
                for cid in occ[lit]:
                    if cid not in partners and clauses[cid] <= new:
                        partners.add(cid)
                # C - D == {-lit}: C strengthens D on lit.
                for cid in occ.get(-lit, ()):
                    literals = clauses[cid]
                    if (
                        cid not in partners
                        and len(literals) <= len(new)
                        and literals - {-lit} <= new
                    ):
                        partners.add(cid)
        clause_epoch = self._clause_epoch
        return lambda cid: clause_epoch[cid] > since or cid in partners

    def _blocking_literal(self, cid: int, frozen: frozenset[int]) -> Optional[int]:
        """The first literal, in the clause's iteration order, on which clause
        ``cid`` is blocked (every resolvent on it is a tautology), or
        ``None``. Literals of ``frozen`` variables are never chosen.

        For each literal ``l`` that is not blocking, the clause remembers one
        partner ``D`` containing ``-l`` whose resolvent is not a tautology.
        While the clause is unchanged (strengthening forgets its partners)
        and ``D`` is alive and still contains ``-l`` (shrinking cannot make
        it clash), ``l`` is still not blocking and no search runs.
        """
        clauses = self._clauses
        literals = clauses[cid]
        partners = self._partners
        base = self._partner_at[cid]
        if base < 0:
            base = len(partners)
            partners.extend(array("q", [-1]) * len(literals))
            self._partner_at[cid] = base
        negated = None
        for slot, lit in enumerate(literals, base):
            if abs(lit) in frozen:
                continue
            known = partners[slot]
            if known >= 0:
                partner = clauses[known]
                if partner is not None and -lit in partner:
                    continue
            if negated is None:
                negated = frozenset([-other for other in literals])
            clashing = negated - {-lit}
            for did in self._occ.get(-lit, ()):
                if clashing.isdisjoint(clauses[did]):
                    partners[slot] = did
                    break
            else:
                return lit
        return None
