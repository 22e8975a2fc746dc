"""CNF formulas over DIMACS-signed integer literals (paper Definitions 1–4).

A *literal* (Definition 1) is a variable ``x_v`` or its negation ``~x_v``;
this module encodes it the DIMACS way, as the non-zero int ``v`` or ``-v``.
A *clause* (Definition 3) is a disjunction of literals, stored as a
*canonical* tuple of such ints: duplicates removed, sorted by variable with
the positive literal first (``[2, -1, 2]`` becomes ``(-1, 2)`` and
``[-3, 3]`` becomes ``(3, -3)``), so structurally equal clauses compare and
hash equal. A *CNF formula* (Definition 4) is a conjunction of clauses:
:class:`CNFFormula` keeps them, in input order, as a tuple of canonical
clauses. The parser, the solvers, the preprocessor and the proof checker
all read that one representation.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Mapping, Optional

from repro.exceptions import CNFError


def canonical_clause(lits: Iterable[int]) -> tuple[int, ...]:
    """The canonical tuple of a clause given as DIMACS-signed ints.

    Raises :class:`CNFError` for ``0`` (the DIMACS clause terminator) and
    for any literal whose type is not exactly ``int`` — bools, floats,
    strings, ``None``, lists and dicts are all rejected.
    """
    try:
        lits = tuple(lits)
    except TypeError:
        raise CNFError(f"a clause must be iterable, got {lits!r}") from None
    if not {int}.issuperset(map(type, lits)) or 0 in lits:
        bad = next(lit for lit in lits if type(lit) is not int or lit == 0)
        raise CNFError(f"invalid literal {bad!r}: literals must be non-zero ints")
    # Descending puts v before -v; the stable sort by variable keeps that.
    return tuple(sorted(sorted(set(lits), reverse=True), key=abs))


def is_tautology(clause: Iterable[int]) -> bool:
    """``True`` when ``clause`` contains a literal and its negation."""
    seen = set(clause)
    return any(-lit in seen for lit in seen)


def evaluate_clause(clause: Iterable[int], assignment: Mapping[int, bool]) -> bool:
    """Truth value of ``clause`` under a complete ``variable -> bool`` mapping.

    Raises :class:`CNFError` if a variable of the clause is unassigned.
    """
    for lit in clause:
        variable = abs(lit)
        if variable not in assignment:
            raise CNFError(f"variable x{variable} is unassigned")
        if assignment[variable] == (lit > 0):
            return True
    return False


def format_literal(lit: int) -> str:
    """The paper's notation for a literal: ``3`` -> ``x3``, ``-3`` -> ``~x3``."""
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


class CNFFormula:
    """A conjunction of clauses over variables ``x_1 .. x_{num_variables}``.

    The formula is immutable: all "mutating" operations return new formulas.

    Parameters
    ----------
    clauses:
        Iterable of clauses, each an iterable of DIMACS-signed ints; every
        clause is stored canonicalised (see :func:`canonical_clause`).
    num_variables:
        Number of variables in the instance. If omitted it defaults to the
        largest variable index mentioned by any clause; pass it explicitly
        when trailing variables are unconstrained.
    """

    __slots__ = ("_clauses", "_num_variables", "_fingerprint")

    def __init__(
        self,
        clauses: Iterable[Iterable[int]],
        num_variables: Optional[int] = None,
    ) -> None:
        canonical = tuple(map(canonical_clause, clauses))
        # A canonical clause ends with its largest variable.
        max_var = max((abs(c[-1]) for c in canonical if c), default=0)
        if num_variables is None:
            num_variables = max_var
        if num_variables < max_var:
            raise CNFError(
                f"num_variables={num_variables} but clause mentions x{max_var}"
            )
        if num_variables < 0:
            raise CNFError(f"num_variables must be non-negative, got {num_variables}")
        self._clauses = canonical
        self._num_variables = int(num_variables)
        self._fingerprint: Optional[str] = None

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_ints(
        cls,
        clauses: Iterable[Iterable[int]],
        num_variables: Optional[int] = None,
    ) -> "CNFFormula":
        """Build a formula from DIMACS-style signed integer clauses."""
        return cls(clauses, num_variables)

    # -- basic protocol ----------------------------------------------------------
    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """The formula's canonical clauses, in input order."""
        return self._clauses

    @property
    def num_variables(self) -> int:
        """Number of variables ``n`` of the instance."""
        return self._num_variables

    @property
    def num_clauses(self) -> int:
        """Number of clauses ``m`` of the instance."""
        return len(self._clauses)

    @property
    def num_literals(self) -> int:
        """Total number of literal occurrences across all clauses."""
        return sum(map(len, self._clauses))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNFFormula):
            return NotImplemented
        return (
            self._clauses == other._clauses
            and self._num_variables == other._num_variables
        )

    def __hash__(self) -> int:
        return hash((self._clauses, self._num_variables))

    def __str__(self) -> str:
        if not self._clauses:
            return "(empty CNF)"
        return " · ".join(
            "(" + (" + ".join(map(format_literal, c)) or "⊥") + ")"
            for c in self._clauses
        )

    def __repr__(self) -> str:
        return (
            f"CNFFormula(num_variables={self._num_variables}, "
            f"num_clauses={self.num_clauses})"
        )

    def fingerprint(self) -> str:
        """Canonical content hash of the formula (hex SHA-256).

        The hash covers ``num_variables`` and the *sorted* multiset of
        canonical clauses, so two formulas that differ only in clause
        order — or in literal order within a clause — fingerprint
        identically. The result-cache of :mod:`repro.runtime` keys on this
        value.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"p cnf {self._num_variables}\n".encode())
            for clause in sorted(self._clauses):
                digest.update(" ".join(map(str, clause)).encode())
                digest.update(b"\n")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # -- queries -------------------------------------------------------------------
    def variables(self) -> set[int]:
        """Variables actually mentioned by at least one clause."""
        return {abs(lit) for clause in self._clauses for lit in clause}

    def has_empty_clause(self) -> bool:
        """``True`` if any clause is empty (the formula is trivially UNSAT)."""
        return () in self._clauses

    def is_ksat(self, k: int) -> bool:
        """``True`` when every clause has exactly ``k`` literals."""
        return all(len(c) == k for c in self._clauses)

    def clause_size_histogram(self) -> dict[int, int]:
        """Mapping ``clause size -> count``."""
        histogram: dict[int, int] = {}
        for clause in self._clauses:
            histogram[len(clause)] = histogram.get(len(clause), 0) + 1
        return histogram

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate the formula under a complete assignment."""
        return all(evaluate_clause(c, assignment) for c in self._clauses)

    def unsatisfied_clauses(
        self, assignment: Mapping[int, bool]
    ) -> list[tuple[int, ...]]:
        """Clauses falsified by a complete assignment (for local search)."""
        return [c for c in self._clauses if not evaluate_clause(c, assignment)]

    # -- transformations ---------------------------------------------------------
    def with_clause(self, clause: Iterable[int]) -> "CNFFormula":
        """A new formula with one extra clause appended."""
        new_clause = canonical_clause(clause)
        max_var = max(self._num_variables, abs(new_clause[-1]) if new_clause else 0)
        return CNFFormula(self._clauses + (new_clause,), max_var)

    def with_assumptions(self, assumptions: Iterable[int]) -> "CNFFormula":
        """A new formula with one unit clause per assumption literal.

        ``assumptions`` are DIMACS-signed integers; appending them as unit
        clauses is the from-scratch equivalent of solving this formula under
        those assumptions in an incremental session (the differential tests
        of :mod:`repro.incremental` rely on this equivalence). The variable
        count grows if an assumption mentions a new variable.
        """
        units: list[tuple[int]] = []
        max_var = self._num_variables
        for lit in assumptions:
            if type(lit) is not int or lit == 0:
                raise CNFError(f"invalid assumption literal {lit!r}")
            units.append((lit,))
            max_var = max(max_var, abs(lit))
        return CNFFormula(self._clauses + tuple(units), max_var)

    def condition(self, variable: int, value: bool) -> "CNFFormula":
        """Condition the formula on ``x_variable = value``.

        Clauses satisfied by the binding are dropped; the bound variable is
        removed from the remaining clauses (possibly producing empty
        clauses). The variable count is preserved so indices stay stable.
        """
        if not 1 <= variable <= self._num_variables:
            raise CNFError(
                f"variable x{variable} out of range 1..{self._num_variables}"
            )
        true_lit = variable if value else -variable
        survivors = [
            [lit for lit in clause if lit != -true_lit]
            for clause in self._clauses
            if true_lit not in clause
        ]
        return CNFFormula(survivors, self._num_variables)

    def to_ints(self) -> list[list[int]]:
        """DIMACS integer encoding of all clauses."""
        return [list(clause) for clause in self._clauses]

    def renumbered(self) -> tuple["CNFFormula", dict[int, int]]:
        """Compact variable indices to ``1..k`` (k = #used variables).

        Returns the renumbered formula and the mapping
        ``old variable -> new variable``.
        """
        used = sorted(self.variables())
        mapping = {old: new for new, old in enumerate(used, start=1)}
        clauses = [
            [mapping[lit] if lit > 0 else -mapping[-lit] for lit in clause]
            for clause in self._clauses
        ]
        return CNFFormula(clauses, len(used)), mapping
