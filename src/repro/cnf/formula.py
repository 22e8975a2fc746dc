"""CNF formulas (paper Definition 4) and their basic algebra."""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.cnf.clause import Clause, LiteralLike
from repro.cnf.literal import Literal
from repro.exceptions import CNFError

ClauseLike = Union[Clause, Sequence[LiteralLike]]


def _coerce_clause(clause: ClauseLike) -> Clause:
    if isinstance(clause, Clause):
        return clause
    return Clause(clause)


class CNFFormula:
    """A conjunction of clauses over variables ``x_1 .. x_{num_variables}``.

    The formula is immutable: all "mutating" operations return new formulas.

    Parameters
    ----------
    clauses:
        Iterable of :class:`Clause` objects or iterables of literal-likes
        (``Literal`` instances or DIMACS-signed integers).
    num_variables:
        Number of variables in the instance. If omitted it defaults to the
        largest variable index mentioned by any clause; pass it explicitly
        when trailing variables are unconstrained.
    """

    __slots__ = ("_clauses", "_num_variables", "_fingerprint")

    def __init__(
        self,
        clauses: Iterable[ClauseLike],
        num_variables: Optional[int] = None,
    ) -> None:
        coerced = tuple(_coerce_clause(c) for c in clauses)
        max_var = 0
        for clause in coerced:
            for lit in clause:
                max_var = max(max_var, lit.variable)
        if num_variables is None:
            num_variables = max_var
        if num_variables < max_var:
            raise CNFError(
                f"num_variables={num_variables} but clause mentions x{max_var}"
            )
        if num_variables < 0:
            raise CNFError(f"num_variables must be non-negative, got {num_variables}")
        self._clauses = coerced
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
        return cls([Clause.from_ints(c) for c in clauses], num_variables)

    # -- basic protocol ----------------------------------------------------------
    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The formula's clauses, in input order."""
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
        return sum(len(c) for c in self._clauses)

    def __iter__(self) -> Iterator[Clause]:
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
        return " · ".join(str(c) for c in self._clauses)

    def __repr__(self) -> str:
        return (
            f"CNFFormula(num_variables={self._num_variables}, "
            f"num_clauses={self.num_clauses})"
        )

    def fingerprint(self) -> str:
        """Canonical content hash of the formula (hex SHA-256).

        The hash covers ``num_variables`` and the *sorted* multiset of
        clauses (each clause already normalises its literal order), so two
        formulas that differ only in clause order — or in literal order
        within a clause — fingerprint identically. The result-cache of
        :mod:`repro.runtime` keys on this value.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"p cnf {self._num_variables}\n".encode())
            for ints in sorted(clause.to_ints() for clause in self._clauses):
                digest.update(" ".join(str(v) for v in ints).encode())
                digest.update(b"\n")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # -- queries -------------------------------------------------------------------
    def variables(self) -> set[int]:
        """Variables actually mentioned by at least one clause."""
        result: set[int] = set()
        for clause in self._clauses:
            result |= clause.variables()
        return result

    def has_empty_clause(self) -> bool:
        """``True`` if any clause is empty (the formula is trivially UNSAT)."""
        return any(c.is_empty for c in self._clauses)

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
        return all(clause.evaluate(assignment) for clause in self._clauses)

    def unsatisfied_clauses(self, assignment: Mapping[int, bool]) -> list[Clause]:
        """Clauses falsified by a complete assignment (for local search)."""
        return [c for c in self._clauses if not c.evaluate(assignment)]

    # -- transformations ---------------------------------------------------------
    def with_clause(self, clause: ClauseLike) -> "CNFFormula":
        """A new formula with one extra clause appended."""
        new_clause = _coerce_clause(clause)
        max_var = max(
            [self._num_variables] + [lit.variable for lit in new_clause]
        )
        return CNFFormula(self._clauses + (new_clause,), max_var)

    def with_assumptions(self, assumptions: Iterable[int]) -> "CNFFormula":
        """A new formula with one unit clause per assumption literal.

        ``assumptions`` are DIMACS-signed integers; appending them as unit
        clauses is the from-scratch equivalent of solving this formula under
        those assumptions in an incremental session (the differential tests
        of :mod:`repro.incremental` rely on this equivalence). The variable
        count grows if an assumption mentions a new variable.
        """
        units: list[Clause] = []
        max_var = self._num_variables
        for lit in assumptions:
            if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                raise CNFError(f"invalid assumption literal {lit!r}")
            units.append(Clause([lit]))
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
        survivors: list[Clause] = []
        for clause in self._clauses:
            satisfied = False
            remaining: list[Literal] = []
            for lit in clause:
                if lit.variable == variable:
                    if lit.evaluate(value):
                        satisfied = True
                        break
                else:
                    remaining.append(lit)
            if not satisfied:
                survivors.append(Clause(remaining))
        return CNFFormula(survivors, self._num_variables)

    def to_ints(self) -> list[list[int]]:
        """DIMACS integer encoding of all clauses."""
        return [clause.to_ints() for clause in self._clauses]

    def renumbered(self) -> tuple["CNFFormula", dict[int, int]]:
        """Compact variable indices to ``1..k`` (k = #used variables).

        Returns the renumbered formula and the mapping
        ``old variable -> new variable``.
        """
        used = sorted(self.variables())
        mapping = {old: new for new, old in enumerate(used, start=1)}
        clauses = [
            Clause([Literal(mapping[l.variable], l.positive) for l in clause])
            for clause in self._clauses
        ]
        return CNFFormula(clauses, len(used)), mapping
