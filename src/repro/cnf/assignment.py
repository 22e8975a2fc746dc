"""Assignments of truth values to variables (complete or partial)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.cnf.formula import canonical_clause, format_literal
from repro.exceptions import AssignmentError


class Assignment:
    """A (possibly partial) mapping from 1-based variables to Boolean values.

    The class behaves like a read-only mapping and adds SAT-specific helpers:
    conversion to/from literal lists and minterm indices, extension,
    consistency checks and pretty printing in the paper's cube notation
    (``x1 ~x2 x3``).
    """

    def __init__(self, values: Optional[Mapping[int, bool]] = None) -> None:
        self._values: Dict[int, bool] = {}
        if values:
            for var, val in values.items():
                self._set(var, val)

    def _set(self, variable: int, value: bool) -> None:
        if isinstance(variable, bool) or not isinstance(variable, int):
            raise AssignmentError(
                f"variable must be an int, got {type(variable).__name__}"
            )
        if variable <= 0:
            raise AssignmentError(f"variable must be >= 1, got {variable}")
        value = bool(value)
        if variable in self._values and self._values[variable] != value:
            raise AssignmentError(
                f"conflicting values for x{variable}: "
                f"{self._values[variable]} vs {value}"
            )
        self._values[variable] = value

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_trusted_model(cls, values: Dict[int, bool]) -> "Assignment":
        """Adopt a pre-validated ``{variable: bool}`` dict without copying.

        For solver hot paths returning models they constructed themselves
        (keys already 1-based ints, values already bools): skips the
        per-variable validation of ``__init__``. The dict is adopted, not
        copied — the caller must not mutate it afterwards.
        """
        assignment = cls()
        assignment._values = values
        return assignment

    @classmethod
    def from_literals(cls, literals: Iterable[int]) -> "Assignment":
        """Build an assignment that makes every listed DIMACS literal true.

        Raises :class:`~repro.exceptions.CNFError` for an invalid literal
        (``0`` or a non-int) and :class:`AssignmentError` when the list
        holds both ``v`` and ``-v``.
        """
        assignment = cls()
        for lit in canonical_clause(literals):
            assignment._set(abs(lit), lit > 0)
        return assignment

    @classmethod
    def from_minterm_index(cls, index: int, num_variables: int) -> "Assignment":
        """Build the complete assignment encoded by a minterm index.

        Bit ``i`` (least significant) of ``index`` gives the value of variable
        ``i + 1``. This is the convention used throughout
        :mod:`repro.hyperspace`.
        """
        if index < 0 or index >= (1 << num_variables):
            raise AssignmentError(
                f"minterm index {index} out of range for {num_variables} variables"
            )
        return cls(
            {var: bool((index >> (var - 1)) & 1) for var in range(1, num_variables + 1)}
        )

    # -- mapping protocol ------------------------------------------------------
    def __getitem__(self, variable: int) -> bool:
        try:
            return self._values[variable]
        except KeyError as exc:
            raise AssignmentError(f"variable x{variable} is unassigned") from exc

    def get(self, variable: int, default: Optional[bool] = None) -> Optional[bool]:
        """Return the value of ``variable`` or ``default`` if unassigned."""
        return self._values.get(variable, default)

    def __contains__(self, variable: int) -> bool:
        return variable in self._values

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[Tuple[int, bool]]:
        """Iterate ``(variable, value)`` pairs in variable order."""
        for var in sorted(self._values):
            yield var, self._values[var]

    def as_dict(self) -> Dict[int, bool]:
        """A plain ``dict`` copy of the assignment."""
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._values.items())))

    # -- SAT-specific helpers ---------------------------------------------------
    def is_complete(self, num_variables: int) -> bool:
        """``True`` when every variable ``1..num_variables`` is assigned."""
        return all(var in self._values for var in range(1, num_variables + 1))

    def assigned_variables(self) -> set[int]:
        """The set of assigned variable indices."""
        return set(self._values)

    def extended(self, variable: int, value: bool) -> "Assignment":
        """A copy of this assignment with ``variable`` additionally bound."""
        new = Assignment(self._values)
        new._set(variable, value)
        return new

    def updated(self, other: Mapping[int, bool]) -> "Assignment":
        """A copy extended with every binding of ``other`` (must be consistent)."""
        new = Assignment(self._values)
        for var, val in other.items():
            new._set(var, val)
        return new

    def satisfies_literal(self, literal: int) -> Optional[bool]:
        """Truth value of a DIMACS ``literal`` under this assignment, ``None``
        if its variable is free."""
        value = self._values.get(abs(literal))
        if value is None:
            return None
        return value == (literal > 0)

    def to_literals(self) -> list[int]:
        """The assignment as DIMACS literals that are true (cube form)."""
        return [var if val else -var for var, val in self.items()]

    def to_minterm_index(self, num_variables: int) -> int:
        """Encode a complete assignment as a minterm index (see above)."""
        if not self.is_complete(num_variables):
            raise AssignmentError(
                "cannot convert a partial assignment to a minterm index"
            )
        index = 0
        for var in range(1, num_variables + 1):
            if self._values[var]:
                index |= 1 << (var - 1)
        return index

    def __str__(self) -> str:
        if not self._values:
            return "(empty assignment)"
        return " ".join(map(format_literal, self.to_literals()))

    def __repr__(self) -> str:
        return f"Assignment({self._values!r})"
