"""DRAT proof logging: the sink solvers and the preprocessor write to.

A DRAT proof is a line-oriented text trace of clause *additions* and
*deletions* performed while refuting a formula.  :class:`ProofLog` is the
single sink the whole stack shares: :class:`~repro.solvers.cdcl.CDCLSolver`
writes learned clauses and the final empty clause, and
:class:`~repro.preprocess.Preprocessor` writes the strengthenings,
eliminations and resolvents of its preprocessing passes.  Each emitted line
is built in memory and written with one ``write()`` call, so an
interrupted run (timeout, crash) can truncate the proof only at a line
boundary — never mid-line.

``ProofLog.translated(mapping)`` returns a view that renames literals as
it forwards them, which is how lines produced by a solver running on the
*renumbered* reduced formula are recorded in the *original* numbering the
checker works against.
"""

from __future__ import annotations

import os
from typing import IO, Iterable, Mapping, Optional, Union

from repro.exceptions import ProofError

__all__ = ["ProofLog", "resolve_proof_log"]


def _format_clause(literals: Iterable[int]) -> str:
    """DIMACS-style body of one proof line: sorted literals then ``0``."""
    lits = sorted(set(int(lit) for lit in literals), key=lambda l: (abs(l), l))
    for lit in lits:
        if lit == 0:
            raise ProofError("proof clause contains literal 0")
    if lits:
        return " ".join(str(lit) for lit in lits) + " 0"
    return "0"


class ProofLog:
    """A DRAT proof under construction.

    Parameters
    ----------
    sink:
        Where lines go: a path (the file is created/truncated), an open
        text stream, or ``None`` to accumulate lines in memory (retrieve
        them via :meth:`lines`).

    Lines are always written whole — the text of each addition, deletion
    or comment is assembled first and handed to the sink in a single
    ``write()`` call — so a proof interrupted between lines stays
    syntactically valid.  :meth:`mark_incomplete` stamps the proof with a
    ``c incomplete`` comment when a run could not finish (e.g. a solver
    timeout); the checker surfaces the flag on its verdict.
    """

    def __init__(self, sink: Union[str, os.PathLike, IO[str], None] = None) -> None:
        self._lines: Optional[list[str]] = None
        self._stream: Optional[IO[str]] = None
        self._owns_stream = False
        if sink is None:
            self._lines = []
        elif hasattr(sink, "write"):
            self._stream = sink  # type: ignore[assignment]
        else:
            self._stream = open(os.fspath(sink), "w", encoding="utf-8")
            self._owns_stream = True
        self.additions = 0
        self.deletions = 0
        self.incomplete = False
        self._closed = False

    # -- emission -----------------------------------------------------

    def _write(self, line: str) -> None:
        if self._closed:
            raise ProofError("proof log is closed")
        if self._lines is not None:
            self._lines.append(line)
        else:
            assert self._stream is not None
            self._stream.write(line + "\n")

    def add(self, literals: Iterable[int]) -> None:
        """Record the addition of a clause (an empty iterable ends the proof)."""
        self._write(_format_clause(literals))
        self.additions += 1

    def delete(self, literals: Iterable[int]) -> None:
        """Record the deletion of a clause."""
        self._write("d " + _format_clause(literals))
        self.deletions += 1

    def comment(self, text: str) -> None:
        """Record a ``c``-prefixed comment line (ignored by checkers)."""
        self._write("c " + text.replace("\n", " "))

    def mark_incomplete(self, reason: str = "") -> None:
        """Flag the proof as truncated (idempotent; e.g. on solver timeout)."""
        if self.incomplete:
            return
        self.incomplete = True
        suffix = f" {reason}" if reason else ""
        self._write("c incomplete" + suffix)

    # -- views and teardown -------------------------------------------

    def translated(self, mapping: Mapping[int, int]) -> "TranslatedProofLog":
        """A forwarding view renaming variables through ``mapping``.

        ``mapping`` maps the *emitting* numbering to the *recorded* one
        (e.g. reduced variable → original variable).  Emitters hand the
        view to a solver running on a renumbered formula; the underlying
        log keeps accumulating lines in the original numbering.
        """
        return TranslatedProofLog(self, mapping)

    def lines(self) -> list[str]:
        """The accumulated lines (in-memory sinks only)."""
        if self._lines is None:
            raise ProofError("proof log is file-backed; read the file instead")
        return list(self._lines)

    def text(self) -> str:
        """The accumulated proof text (in-memory sinks only)."""
        return "\n".join(self.lines()) + ("\n" if self.lines() else "")

    def flush(self) -> None:
        """Flush the underlying stream, if any."""
        if self._stream is not None and not self._closed:
            self._stream.flush()

    def close(self) -> None:
        """Close the log (and the file stream it opened). Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._stream is not None:
            if self._owns_stream:
                self._stream.close()
            else:
                self._stream.flush()
        from repro.telemetry import instrument as _telemetry

        if _telemetry.active():
            _telemetry.emit("repro_proof_lines_total", self.additions, kind="add")
            _telemetry.emit("repro_proof_lines_total", self.deletions, kind="delete")
            _telemetry.emit(
                "repro_proof_logs_total",
                incomplete="true" if self.incomplete else "false",
            )

    def __enter__(self) -> "ProofLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TranslatedProofLog:
    """Literal-renaming view over a :class:`ProofLog`.

    Forwards every operation to the underlying log after mapping each
    literal's variable through the translation table.  Closing the view is
    a no-op — the owner of the underlying log closes it.
    """

    def __init__(self, base: ProofLog, mapping: Mapping[int, int]) -> None:
        self._base = base
        self._mapping = dict(mapping)

    def _translate(self, literals: Iterable[int]) -> list[int]:
        out = []
        for lit in literals:
            var = abs(lit)
            mapped = self._mapping.get(var)
            if mapped is None:
                raise ProofError(
                    f"proof translation has no mapping for variable {var}"
                )
            out.append(mapped if lit > 0 else -mapped)
        return out

    def add(self, literals: Iterable[int]) -> None:
        """Record a clause addition in the translated numbering."""
        self._base.add(self._translate(literals))

    def delete(self, literals: Iterable[int]) -> None:
        """Record a clause deletion in the translated numbering."""
        self._base.delete(self._translate(literals))

    def comment(self, text: str) -> None:
        """Forward a comment line unchanged."""
        self._base.comment(text)

    def mark_incomplete(self, reason: str = "") -> None:
        """Forward the incomplete flag to the underlying log."""
        self._base.mark_incomplete(reason)

    @property
    def incomplete(self) -> bool:
        """Whether the underlying log is flagged incomplete."""
        return self._base.incomplete

    def flush(self) -> None:
        """Flush the underlying log."""
        self._base.flush()

    def close(self) -> None:
        """No-op: the owner of the underlying log closes it."""


def resolve_proof_log(spec) -> tuple[Optional[ProofLog], bool]:
    """Normalise a ``proof=`` argument into ``(log, owned)``.

    ``spec`` may be ``None`` (no logging), an existing :class:`ProofLog`
    (or translated view) that the caller manages, or a path, in which case
    a file-backed log is opened here and ``owned`` is ``True`` — the
    consumer must close it when the run ends.
    """
    if spec is None:
        return None, False
    if isinstance(spec, (ProofLog, TranslatedProofLog)):
        return spec, False  # type: ignore[return-value]
    return ProofLog(spec), True
