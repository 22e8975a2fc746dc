"""Structured tracing: nested spans with monotonic timings.

A :class:`Span` is one timed operation (a solve, a preprocessing run, a
cache lookup); spans nest, so a trace of a batch run is a forest of trees
whose leaves are the innermost operations. A :class:`Tracer` records
completed *root* spans into a bounded ring buffer and, optionally, appends
each one to a JSONL sink (one JSON object per line, children inlined) so
traces survive the process.

Design rules, in order of importance:

* **Zero cost when disabled.** The module-level current tracer defaults to
  :data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns one shared
  no-op span object — no allocation, no timestamps, no dictionary is built
  on the hot path. Instrumentation sites additionally guard attribute
  construction behind :attr:`Span.recording` / :func:`tracing_active` so a
  disabled tracer costs a bool check and nothing else.
* **Bounded memory.** Completed root spans live in a ring buffer
  (``capacity`` roots); each span keeps at most
  :attr:`Span.max_children` children and counts the overflow in
  :attr:`Span.truncated_children` instead of growing without bound.
* **Monotonic timings.** Spans are stamped with ``time.perf_counter()``,
  so durations are immune to wall-clock adjustments (absolute wall-clock
  anchoring, when needed, belongs in an attribute).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.exceptions import ReproError

PathLike = Union[str, os.PathLike]

#: The span names emitted by the library's own instrumentation (see
#: ``docs/observability.md`` for the full taxonomy with attributes):
#: ``solve`` (one solver run), ``session.solve`` (one incremental query),
#: ``preprocess`` (one pipeline run), ``propagate`` (one unit-propagation
#: sweep inside CDCL), ``restart`` (a solver restart event),
#: ``cache.lookup`` (one result-cache probe), ``pool.task`` (one job
#: executed by the worker pool), ``batch`` (one batch-run summary event),
#: ``proof.check`` (one RUP/DRAT checker run), the ``service.*`` events
#: and ``cli.<command>`` (one CLI invocation, the usual root).
SPAN_TAXONOMY = (
    "solve",
    "session.solve",
    "preprocess",
    "propagate",
    "restart",
    "cache.lookup",
    "cache.shard.load",
    "cache.shard.compact",
    "pool.task",
    "batch",
    "proof.check",
    "service.request",
    "service.dedup",
    "service.degraded",
    "cli.solve",
    "cli.check",
    "cli.batch",
    "cli.incremental",
    "cli.check-proof",
    "cli.serve",
    "cli.client",
)


class Span:
    """One timed, attributed operation inside a trace tree.

    Use as a context manager obtained from :meth:`Tracer.span`; entering
    stamps the start, exiting stamps the end and files the span under its
    parent (or into the tracer's ring buffer when it is a root).

    Attributes are plain JSON-serialisable values set via :meth:`set`;
    instrumentation sites check :attr:`recording` before building them so
    the disabled path never allocates.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_seconds",
        "end_seconds",
        "truncated_children",
        "_tracer",
    )

    #: ``True`` on real spans; the null span overrides this with ``False``.
    recording = True
    #: Per-span cap on retained children; the overflow is counted in
    #: :attr:`truncated_children` so heavy inner loops cannot exhaust memory.
    max_children = 4096

    def __init__(
        self,
        name: str,
        tracer: Optional["Tracer"] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = str(name)
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []
        self.start_seconds: Optional[float] = None
        self.end_seconds: Optional[float] = None
        self.truncated_children = 0
        self._tracer = tracer

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "Span":
        self.start_seconds = time.perf_counter()
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_seconds = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes (chainable); values must be JSON-serialisable."""
        self.attributes.update(attributes)
        return self

    def add_child(self, child: "Span") -> None:
        """File a completed child span (bounded by :attr:`max_children`)."""
        if len(self.children) >= self.max_children:
            self.truncated_children += 1
            return
        self.children.append(child)

    # -- introspection -------------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        """Span duration (0.0 while unfinished or for zero-duration events)."""
        if self.start_seconds is None or self.end_seconds is None:
            return 0.0
        return self.end_seconds - self.start_seconds

    def walk(self) -> Iterator["Span"]:
        """Depth-first iterator over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- (de)serialisation ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable encoding (children inlined, depth-first)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "start": self.start_seconds,
            "end": self.end_seconds,
            "duration": self.duration_seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }
        if self.truncated_children:
            payload["truncated_children"] = self.truncated_children
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (used by :func:`load_trace`)."""
        span = cls(data["name"], attributes=data.get("attributes"))
        span.start_seconds = data.get("start")
        span.end_seconds = data.get("end")
        span.truncated_children = data.get("truncated_children", 0)
        for child in data.get("children", ()):
            span.children.append(cls.from_dict(child))
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration_seconds:.6f}s, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """The shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()
    recording = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSpan()"


#: The singleton no-op span. Identity-stable: every ``span()`` call on a
#: disabled tracer returns this very object, allocating nothing.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    :attr:`enabled` is ``False`` so instrumentation sites can skip building
    span attributes entirely; :meth:`span` returns the shared
    :data:`NULL_SPAN` singleton (no allocation per call).
    """

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """A no-op span (the shared singleton)."""
        return NULL_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        """Dropped."""
        return None

    @property
    def finished(self) -> tuple:
        """Always empty."""
        return ()

    def clear(self) -> None:
        """Nothing to clear."""

    def flush(self) -> None:
        """Nothing to flush."""

    def close(self) -> None:
        """Nothing to close."""


#: The singleton disabled tracer installed by default.
NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans into a ring buffer and an optional JSONL sink.

    Parameters
    ----------
    capacity:
        How many completed *root* spans the in-memory ring buffer retains
        (oldest evicted first). Children live inside their root.
    sink:
        Optional JSONL destination: a path (opened lazily in append mode
        and owned by the tracer) or any object with a ``write`` method
        (not owned — the caller closes it). Each completed root span is
        written as one JSON line.

    The span stack is thread-local, so concurrently traced threads build
    independent trees; the ring buffer and sink are shared (writes are
    locked).
    """

    enabled = True

    def __init__(self, capacity: int = 1024, sink=None) -> None:
        if capacity <= 0:
            raise ReproError(f"tracer capacity must be positive, got {capacity}")
        self._finished: "deque[Span]" = deque(maxlen=capacity)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sink_path: Optional[str] = None
        self._sink_handle = None
        self._owns_sink = False
        if sink is not None:
            if hasattr(sink, "write"):
                self._sink_handle = sink
            else:
                self._sink_path = os.fspath(sink)
                self._owns_sink = True

    # -- recording -----------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """A new span; enter it (``with``) to start the clock."""
        return Span(name, tracer=self, attributes=attributes or None)

    def event(self, name: str, **attributes: Any) -> Span:
        """A zero-duration span stamped now, filed under the current span."""
        span = Span(name, attributes=attributes or None)
        span.start_seconds = span.end_seconds = time.perf_counter()
        parent = self._current()
        if parent is not None:
            parent.add_child(span)
        else:
            self._complete_root(span)
        return span

    # -- span-stack plumbing (called by Span.__enter__/__exit__) -------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate exception-driven unwinding that skipped an __exit__.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].add_child(span)
        else:
            self._complete_root(span)

    def _complete_root(self, span: Span) -> None:
        self._finished.append(span)
        self._write(span)

    # -- sink ----------------------------------------------------------------
    def _write(self, span: Span) -> None:
        if self._sink_handle is None and self._sink_path is None:
            return
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            if self._sink_handle is None:
                self._sink_handle = open(self._sink_path, "a", encoding="utf-8")
            self._sink_handle.write(line + "\n")
            self._sink_handle.flush()

    # -- introspection / lifecycle -------------------------------------------
    @property
    def finished(self) -> tuple:
        """Completed root spans, oldest first (bounded by ``capacity``)."""
        return tuple(self._finished)

    def clear(self) -> None:
        """Drop the buffered root spans (the sink keeps what it has)."""
        self._finished.clear()

    def flush(self) -> None:
        """Flush the sink, if any."""
        with self._lock:
            if self._sink_handle is not None:
                self._sink_handle.flush()

    def close(self) -> None:
        """Close a tracer-owned sink file (no-op otherwise)."""
        with self._lock:
            if self._owns_sink and self._sink_handle is not None:
                self._sink_handle.close()
                self._sink_handle = None

    def __repr__(self) -> str:
        return f"Tracer(finished={len(self._finished)}, sink={self._sink_path!r})"


#: The process-wide current tracer. Module-level by design: hot paths read
#: it with one attribute lookup and no indirection.
_current_tracer: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The currently installed tracer (:data:`NULL_TRACER` when disabled)."""
    return _current_tracer


def set_tracer(tracer: Union[Tracer, NullTracer]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` as the current tracer; returns the previous one."""
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer
    return previous


def tracing_active() -> bool:
    """``True`` when a real (recording) tracer is installed."""
    return _current_tracer.enabled


def start_tracing(capacity: int = 1024, sink=None) -> Tracer:
    """Install (and return) a fresh recording :class:`Tracer`.

    ``sink`` is forwarded to :class:`Tracer`; a previously installed
    recording tracer is replaced but *not* closed (callers that own one
    pair :func:`start_tracing` with :func:`stop_tracing`).
    """
    tracer = Tracer(capacity=capacity, sink=sink)
    set_tracer(tracer)
    return tracer


def stop_tracing() -> Union[Tracer, NullTracer]:
    """Disable tracing; flushes + closes the outgoing tracer's sink.

    Returns the tracer that was active, so its in-memory buffer remains
    inspectable after the fact.
    """
    previous = set_tracer(NULL_TRACER)
    previous.flush()
    previous.close()
    return previous


def load_trace(path: PathLike) -> List[Span]:
    """Read a JSONL trace written by a :class:`Tracer` sink.

    Returns the root spans (children nested inside). Raises
    :class:`~repro.exceptions.ReproError` for unreadable or structurally
    invalid files.
    """
    roots: List[Span] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                if not isinstance(data, dict) or "name" not in data:
                    raise ValueError(f"line {line_number} is not a span object")
                roots.append(Span.from_dict(data))
    except ReproError:
        raise
    except Exception as exc:  # noqa: BLE001 — persistence boundary
        raise ReproError(f"cannot load trace file {os.fspath(path)!r}: {exc}") from exc
    return roots
