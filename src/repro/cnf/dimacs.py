"""DIMACS CNF reading and writing.

The DIMACS format is the de-facto interchange format for SAT instances:

.. code-block:: text

    c a comment
    p cnf <num_variables> <num_clauses>
    1 -2 0
    2 3 0

Only the ``cnf`` problem type is supported. Clauses may span multiple lines
and multiple clauses may share a line, exactly as the format allows.
"""

from __future__ import annotations

import os
from typing import Iterable, Union

from repro.cnf.formula import CNFFormula
from repro.exceptions import DimacsParseError
from repro.utils.gc_pause import paused_gc

PathLike = Union[str, os.PathLike]


@paused_gc()
def parse_dimacs(text: str) -> CNFFormula:
    """Parse a DIMACS CNF string into a :class:`CNFFormula`.

    Runs with the cyclic garbage collector paused (see
    :func:`repro.utils.gc_pause.paused_gc`): a large file builds one list
    and one tuple per clause in a single burst.

    Raises
    ------
    DimacsParseError
        On missing/malformed problem line, non-integer tokens, variable
        indices out of range, or a clause count that does not match the
        header.
    """
    num_variables: int | None = None
    declared_clauses: int | None = None
    clauses: list[list[int]] = []
    current: list[int] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            # Some benchmark suites terminate files with "%" and a stray "0".
            break
        if line.startswith("p"):
            if num_variables is not None:
                raise DimacsParseError(f"line {line_no}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsParseError(
                    f"line {line_no}: malformed problem line {line!r}"
                )
            try:
                num_variables = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError as exc:
                raise DimacsParseError(
                    f"line {line_no}: non-integer counts in problem line"
                ) from exc
            if num_variables < 0 or declared_clauses < 0:
                raise DimacsParseError(
                    f"line {line_no}: negative counts in problem line"
                )
            continue
        if num_variables is None:
            raise DimacsParseError(
                f"line {line_no}: clause data before the problem line"
            )
        for token in line.split():
            try:
                value = int(token)
            except ValueError as exc:
                raise DimacsParseError(
                    f"line {line_no}: non-integer literal {token!r}"
                ) from exc
            if value == 0:
                clauses.append(current)
                current = []
            else:
                if abs(value) > num_variables:
                    raise DimacsParseError(
                        f"line {line_no}: literal {value} exceeds declared "
                        f"variable count {num_variables}"
                    )
                current.append(value)

    if num_variables is None:
        raise DimacsParseError("missing problem line ('p cnf n m')")
    if current:
        # A final clause without the terminating 0 is tolerated (some
        # generators emit this); it is still a complete clause.
        clauses.append(current)
    if declared_clauses is not None and len(clauses) != declared_clauses:
        raise DimacsParseError(
            f"problem line declares {declared_clauses} clauses but "
            f"{len(clauses)} were found"
        )
    return CNFFormula.from_ints(clauses, num_variables)


def parse_dimacs_file(path: PathLike) -> CNFFormula:
    """Parse the DIMACS CNF file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


def to_dimacs(formula: CNFFormula, comments: Iterable[str] = ()) -> str:
    """Serialise ``formula`` to a DIMACS CNF string."""
    lines = [f"c {comment}" for comment in comments]
    lines.append(f"p cnf {formula.num_variables} {formula.num_clauses}")
    for clause in formula:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def write_dimacs_file(
    formula: CNFFormula, path: PathLike, comments: Iterable[str] = ()
) -> None:
    """Write ``formula`` to ``path`` in DIMACS CNF format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_dimacs(formula, comments))
