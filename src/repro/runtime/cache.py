"""LRU result cache keyed by ``(formula fingerprint, assumptions)``.

Satisfiability is a property of the formula and the assumption set alone,
so a definitive (verified SAT/UNSAT) outcome obtained by *any* solver
answers every later job for a structurally identical formula under the
same assumptions — regardless of clause order, literal order or which
solver the later job asked for. The cache therefore keys on
:func:`repro.runtime.jobs.solve_cache_key`, which combines
:meth:`repro.cnf.formula.CNFFormula.fingerprint` with the canonically
sorted assumption literals (the bare fingerprint when there are none, so
entries persisted before assumptions existed stay valid). Different
assumption sets can never collide. A job that preprocesses keys exactly like one that does
not, so a cached model always satisfies the formula it is served for.
Only definitive outcomes are stored; UNKNOWN/ERROR results are never
cached.

:class:`ResultCache` lives in memory only. Persistence is
:class:`~repro.runtime.shards.ShardedResultCache`'s job: it keeps one
:class:`ResultCache` per shard in front of that shard's snapshot and
write-ahead log.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.exceptions import RuntimeSubsystemError
from repro.runtime.jobs import SolveOutcome
from repro.telemetry import instrument as _telemetry


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ResultCache`.

    Instances are immutable snapshots: the live counters are owned by the
    cache that produced them and mutated only under that cache's lock, so
    a snapshot taken from any thread (the service event loop, executor
    callbacks, worker collectors) can never expose torn counts.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0

    @property
    def lookups(self) -> int:
        """Total number of :meth:`ResultCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """``hits / lookups`` (0.0 when nothing was looked up yet)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @classmethod
    def merged(cls, parts: Iterable["CacheStats"]) -> "CacheStats":
        """The aggregate snapshot of several caches (e.g. all shards)."""
        hits = misses = evictions = size = max_size = 0
        for part in parts:
            hits += part.hits
            misses += part.misses
            evictions += part.evictions
            size += part.size
            max_size += part.max_size
        return cls(
            hits=hits,
            misses=misses,
            evictions=evictions,
            size=size,
            max_size=max_size,
        )


class ResultCache:
    """A bounded, thread-safe LRU map ``cache key -> SolveOutcome``.

    Keys are :attr:`repro.runtime.jobs.SolveJob.cache_key` strings —
    the formula fingerprint, extended with the canonical assumption
    literals when a job solves under assumptions.

    Parameters
    ----------
    max_size:
        Maximum number of cached outcomes; the least-recently-used entry is
        evicted beyond that.
    """

    def __init__(self, max_size: int = 4096) -> None:
        if max_size <= 0:
            raise RuntimeSubsystemError(
                f"cache max_size must be positive, got {max_size}"
            )
        self._max_size = max_size
        self._entries: "OrderedDict[str, SolveOutcome]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def max_size(self) -> int:
        """The configured capacity."""
        return self._max_size

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[SolveOutcome]:
        """Look up a cached outcome by cache key, refreshing its recency.

        ``key`` is a :attr:`SolveJob.cache_key` (the bare fingerprint for
        assumption-free jobs). The returned outcome is a copy with
        ``from_cache=True`` and zero elapsed time, so callers can aggregate
        timings without double counting the original solve.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                hit = True
        # Instrumentation stays outside the lock: the tracer and registry
        # take their own locks, and nothing here needs this cache's state.
        if _telemetry.active():
            if _telemetry.tracing_active():
                _telemetry.event("cache.lookup", hit=hit)
            _telemetry.emit(
                "repro_cache_hits_total" if hit else "repro_cache_misses_total"
            )
        if entry is None:
            return None
        return entry.copy(from_cache=True, elapsed_seconds=0.0)

    def put(self, outcome: SolveOutcome) -> bool:
        """Insert a definitive outcome; returns ``False`` when not cacheable.

        Only verified SAT/UNSAT outcomes with a fingerprint are stored —
        caching an UNKNOWN or ERROR would pin a transient failure onto every
        future occurrence of the formula. The entry lives under the
        outcome's own ``(fingerprint, assumptions)`` cache key.
        """
        key = outcome.cache_key
        if not key or not outcome.is_definitive:
            return False
        evicted = 0
        with self._lock:
            self._entries[key] = outcome
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_size:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted and _telemetry.active():
            _telemetry.emit("repro_cache_evictions_total", evicted)
        return True

    def entries(self) -> list[tuple[str, SolveOutcome]]:
        """A consistent ``(key, outcome)`` snapshot in LRU order (oldest first).

        Taken under the cache lock, so a concurrent writer can never tear
        the listing; used by shard merge-compaction to fold this cache's
        view into the on-disk state without going through the WAL.
        """
        with self._lock:
            return list(self._entries.items())

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the cache counters (hits/misses/evictions/size)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self._max_size,
            )
