"""In-memory span tracing around the public entry points of each layer.

The program under test is not edited: :func:`install` replaces selected
functions and methods with timing wrappers from here, and :func:`uninstall`
puts the originals back.  A span records its name, start, end and parent
span; the parent is tracked in a :class:`contextvars.ContextVar`, so asyncio
tasks and threads each see their own stack.  Spans stay in memory until the
run ends.

A layer's *self time* is the total duration of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import time
from collections import defaultdict

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.child = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and named counters for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> tuple:
        parent = _CURRENT.get()
        span = Span(name, parent)
        return span, _CURRENT.set(span)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def summary(self) -> dict:
        """``{"self": {name: s}, "total": {name: s}, "calls": {name: n}, "counters": {...}}``."""
        self_time: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            self_time[span.name] += span.duration - span.child
            calls[span.name] += 1
            # Only the outermost span of a name counts towards its total,
            # so recursive/nested calls of one entry point are not doubled.
            parent = span.parent
            while parent is not None and parent.name != span.name:
                parent = parent.parent
            if parent is None:
                total[span.name] += span.duration
        return {
            "self": dict(self_time),
            "total": dict(total),
            "calls": dict(calls),
            "counters": dict(self.counters),
        }


def _wrap_sync(fn, tracer: Tracer, name: str, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if after is not None:
            after(tracer, span, args, kwargs, result)
        return result

    return wrapper


def _wrap_async(fn, tracer: Tracer, name: str, after):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span, token = tracer.open(name)
        try:
            result = await fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if after is not None:
            after(tracer, span, args, kwargs, result)
        return result

    return wrapper


# -- counter hooks: read work counts off arguments and results ------------------


def _search_counts(tracer, span, args, kwargs, result):
    stats = args[1] if len(args) > 1 else kwargs["stats"]
    tracer.count("cdcl.conflicts", stats.conflicts)
    tracer.count("cdcl.propagations", stats.propagations)
    tracer.count("cdcl.decisions", stats.decisions)


def _preprocess_counts(tracer, span, args, kwargs, result):
    stats = result.stats
    tracer.count("preprocess.runs")
    tracer.count("preprocess.clauses_in", stats.original_clauses)
    tracer.count("preprocess.clauses_out", stats.reduced_clauses)
    tracer.count("preprocess.decided", 1 if result.decided else 0)


def _sample_counts(tracer, span, args, kwargs, result):
    tracer.count("noise.values", result.size)


def _check_counts(tracer, span, args, kwargs, result):
    tracer.count("core.checks")


def _cache_get_counts(tracer, span, args, kwargs, result):
    if span.parent is not None and span.parent.name == span.name:
        return  # the sharded cache delegates to a per-shard cache
    tracer.count("runtime.cache_gets")
    tracer.count("runtime.cache_hits", result is not None)


#: (module, attribute path, span name, counter hook).  Names imported by
#: value into another module are patched there too, so every call site of
#: an entry point is timed.
TARGETS = [
    ("repro.cnf.dimacs", "parse_dimacs", "cnf.parse", None),
    ("repro.cnf.dimacs", "parse_dimacs_file", "cnf.parse", None),
    ("repro.runtime.batch", "parse_dimacs_file", "cnf.parse", None),
    ("repro.service.protocol", "parse_dimacs", "cnf.parse", None),
    ("repro.cnf.formula", "CNFFormula.from_ints", "cnf.build", None),
    ("repro.cnf.formula", "CNFFormula.__init__", "cnf.build", None),
    ("repro.cnf.formula", "CNFFormula.fingerprint", "cnf.fingerprint", None),
    ("repro.preprocess.pipeline", "Preprocessor.preprocess", "preprocess.run", _preprocess_counts),
    ("repro.preprocess.pipeline", "PreprocessResult.reconstruct", "preprocess.reconstruct", None),
    ("repro.solvers.cdcl.kernel", "ArenaKernel.load_formula", "cdcl.load", None),
    ("repro.solvers.cdcl.kernel", "ArenaKernel.load_clauses", "cdcl.load", None),
    ("repro.solvers.cdcl.kernel", "ArenaKernel.search", "cdcl.search", _search_counts),
    ("repro.runtime.batch", "BatchRunner.run", "runtime.batch", None),
    ("repro.runtime.pool", "execute_job", "runtime.execute", None),
    ("repro.runtime.cache", "ResultCache.get", "runtime.cache_get", _cache_get_counts),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache_put", None),
    ("repro.runtime.shards", "ShardedResultCache.get", "runtime.cache_get", _cache_get_counts),
    ("repro.runtime.shards", "ShardedResultCache.put", "runtime.cache_put", None),
    ("repro.service.server", "SolveService.handle_line", "service.handle", None),
    ("repro.service.server", "SolveService._execute", "runtime.dispatch", None),
    ("repro.service.server", "parse_request", "service.parse_request", None),
    ("repro.service.server", "build_job", "service.build_job", None),
    ("repro.service.server", "encode_message", "service.encode", None),
    ("repro.core.symbolic", "SymbolicNBLEngine.__init__", "core.symbolic", None),
    ("repro.core.symbolic", "SymbolicNBLEngine.check", "core.symbolic", None),
    ("repro.core.sampled", "SampledNBLEngine.check", "core.check", _check_counts),
    ("repro.core.sampled", "sigma_samples", "core.sigma", None),
    ("repro.core.sampled", "reference_hyperspace", "hyperspace.tau", None),
    ("repro.noise.bank", "NoiseBank.sample_block", "noise.sample", _sample_counts),
]


def layer_of(span_name: str) -> str:
    """``cnf.parse`` -> ``cnf``; the kernel spans belong to ``solvers.cdcl``."""
    head = span_name.split(".", 1)[0]
    return "solvers.cdcl" if head == "cdcl" else head


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self):
        self._undo: list[tuple] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    done = Installation()
    for module_name, path, name, after in targets:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        wrap = _wrap_async if inspect.iscoroutinefunction(fn) else _wrap_sync
        wrapped = wrap(fn, tracer, name, after)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        done._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    return done
