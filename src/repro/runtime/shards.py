"""Sharded, write-ahead persistent result cache: the one on-disk cache.

``repro batch --cache-dir`` and ``repro serve --cache-dir`` both keep
their verdicts here. Verdicts are durable *as they arrive*, and many
shards keep any single file from becoming a rewrite bottleneck.
:class:`ShardedResultCache` splits entries across ``N`` shards by a
stable hash of the cache key; each shard holds

* an in-memory :class:`~repro.runtime.cache.ResultCache`,
* a snapshot file ``shard-NNN.json`` (``{"version": 2, "entries":
  [{"key": ..., "outcome": ...}, ...]}``, written atomically by
  :func:`atomic_write_json`),
* a write-ahead log ``shard-NNN.wal`` — one JSON record per line,
  appended and flushed *before* the entry becomes visible in memory, so
  every verdict a caller ever observed survives a crash, and
* a lock file ``shard-NNN.lock`` — the shard's cross-process lease
  (:class:`~repro.runtime.locks.FileLease`), taken for every WAL
  append, compaction and recovery replay, so **N server processes can
  share one cache directory**: no process ever reads another's
  half-written record or truncates a log someone else is appending to.
  A holder that dies (SIGKILL) leaves its lock file behind; waiters
  reclaim it once its heartbeat goes stale.

Recovery (:meth:`ShardedResultCache.load`, run automatically when a
directory is given) loads each snapshot and replays its WAL. A torn
final record — the classic crash-mid-append artifact — is detected,
dropped and trimmed from the log; committed records are never lost
because each append is flushed to the OS before the entry is published.
:meth:`compact` *merges* under the shard lease: it folds the on-disk
snapshot, the full WAL (including records appended by other processes)
and this process's in-memory entries into a fresh snapshot (via
:func:`atomic_write_json`) before truncating the
log — so a compaction by any writer preserves every writer's verdicts,
and an entry that failed to WAL-append during a degraded spell is healed
into the snapshot by the next successful compaction. Replay is
idempotent, so a crash between snapshot and truncation only leaves
duplicate records behind, never wrong ones.

Fault points (``shards.wal.append``, ``shards.wal.fsync``,
``shards.snapshot.write``, ``shards.lock.acquire``) are threaded through
every IO boundary via :func:`repro.faults.fire`, which is how the chaos
suite proves these guarantees under injected fsync failures, torn
writes and IO delays.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import zlib
from typing import Optional, Union

from repro import faults as _faults
from repro.exceptions import (
    CacheLockError,
    CachePersistError,
    RuntimeSubsystemError,
)
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.jobs import SolveOutcome
from repro.runtime.locks import DEFAULT_LEASE_TIMEOUT, FileLease
from repro.telemetry import instrument as _telemetry

PathLike = Union[str, os.PathLike]

#: Shard count of a new cache directory (or an in-memory cache) opened
#: without an explicit one.
DEFAULT_SHARDS = 8


def atomic_write_json(path: PathLike, payload) -> None:
    """Crash-safe JSON write: temp file in the target directory, then rename.

    The payload is written to a uniquely-named temporary file next to
    ``path``, flushed and fsynced, and moved into place with
    :func:`os.replace` — so a reader never observes a half-written file
    and a crash at any point leaves either the old contents or the new,
    never a torn mix. Used for shard snapshots and the shard metadata.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, target)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def decode_outcome(data: dict) -> Optional[SolveOutcome]:
    """A persisted outcome, or ``None`` when the entry is stale.

    Earlier releases stored preprocessed verdicts under the *reduced*
    formula's key and marked them with a non-null ``solved_assumptions``.
    Such a key can name a formula the cached model does not satisfy, so
    those entries are skipped on load and dropped by the next compaction.
    """
    if data.get("solved_assumptions") is not None:
        return None
    return SolveOutcome.from_dict(data)


def _load_snapshot(path: str, target: ResultCache) -> int:
    """Merge a snapshot file into ``target``; returns how many loaded.

    A missing file loads nothing. Stale entries (see
    :func:`decode_outcome`) are skipped and not counted. An unreadable
    or structurally wrong file raises :class:`RuntimeSubsystemError`.
    """
    if not os.path.exists(path):
        return 0
    # Broad catch by design: a snapshot is untrusted persisted state, and
    # any structural surprise must surface as the library's own error
    # (which callers degrade on), never as a raw traceback.
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        outcomes = [decode_outcome(entry["outcome"]) for entry in payload["entries"]]
    except Exception as exc:  # noqa: BLE001 — persistence boundary
        raise RuntimeSubsystemError(
            f"cannot load cache snapshot {path!r}: {exc}"
        ) from exc
    return sum(
        1 for outcome in outcomes if outcome is not None and target.put(outcome)
    )


def _write_snapshot(path: str, source: ResultCache) -> int:
    """Atomically replace ``path`` with ``source``'s entries; their count."""
    entries = [
        {"key": key, "outcome": outcome.to_dict()}
        for key, outcome in source.entries()
    ]
    atomic_write_json(path, {"version": 2, "entries": entries})
    return len(entries)


def shard_index(key: str, shards: int) -> int:
    """The shard a cache key lives in: a stable CRC-32 of the key.

    Independent of :envvar:`PYTHONHASHSEED` and of the Python version, so
    a cache directory written by one process is read back identically by
    any other.
    """
    return zlib.crc32(key.encode("utf-8")) % shards


class _Shard:
    """One shard: an in-memory cache plus its snapshot, WAL and lease."""

    def __init__(
        self,
        index: int,
        directory: Optional[str],
        max_size: int,
        fsync: bool,
        lease_timeout: float,
    ) -> None:
        self.index = index
        self.cache = ResultCache(max_size)
        self._max_size = max_size
        self._fsync = fsync
        self._lock = threading.Lock()
        self._handle = None
        self.pending = 0  # WAL records appended since the last compaction
        if directory is None:
            self.snapshot_path = None
            self.wal_path = None
            self.lease: Optional[FileLease] = None
        else:
            self.snapshot_path = os.path.join(directory, f"shard-{index:03d}.json")
            self.wal_path = os.path.join(directory, f"shard-{index:03d}.wal")
            self.lease = FileLease(
                os.path.join(directory, f"shard-{index:03d}.lock"),
                lease_timeout=lease_timeout,
            )

    @property
    def persistent(self) -> bool:
        return self.wal_path is not None

    def _acquire_lease(self) -> None:
        """Take the shard's cross-process lease (metrics on wait/takeover)."""
        takeovers_before = self.lease.takeovers
        waited = time.perf_counter()
        self.lease.acquire()
        if _telemetry.active():
            _telemetry.emit(
                "repro_cache_lock_wait_seconds", time.perf_counter() - waited
            )
            for _ in range(self.lease.takeovers - takeovers_before):
                _telemetry.emit("repro_cache_lock_takeovers_total", shard=self.index)

    def load(self) -> tuple[int, int, int]:
        """Load snapshot + WAL; returns ``(snapshot, replayed, torn)`` counts.

        Runs under the shard lease: a record another process is appending
        right now must never be mistaken for a torn crash artifact and
        trimmed away.
        """
        if not self.persistent:
            return (0, 0, 0)
        self._acquire_lease()
        try:
            snapshot = _load_snapshot(self.snapshot_path, self.cache)
            replayed, torn = self._replay_wal(self.cache, trim=True)
            self.pending = replayed
            return (snapshot, replayed, torn)
        finally:
            self.lease.release()

    def _replay_wal(self, target: ResultCache, trim: bool) -> tuple[int, int]:
        """Replay the WAL into ``target``; returns ``(replayed, torn)``.

        Caller holds the lease. With ``trim``, a torn tail is cut back to
        the committed prefix so future appends never land after garbage.
        Stale records (see :func:`decode_outcome`)
        are skipped: neither replayed nor torn, and replay goes on.
        """
        if not os.path.exists(self.wal_path):
            return (0, 0)
        survivors: list[bytes] = []
        replayed = torn = 0
        with open(self.wal_path, "rb") as handle:
            lines = handle.read().split(b"\n")
        for position, raw in enumerate(lines):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                key = record["key"]
                outcome = decode_outcome(record["outcome"])
                if not isinstance(key, str) or not key:
                    raise ValueError("record has no key")
            except Exception:  # noqa: BLE001 — persistence boundary
                # A torn append: this record (and anything after it —
                # the log is append-only, so later bytes are suspect
                # too) never committed. Drop it and stop replaying.
                torn += sum(1 for rest in lines[position:] if rest.strip())
                break
            survivors.append(raw)
            if outcome is not None:
                target.put(outcome)
                replayed += 1
        if torn and trim:
            # Trim the log back to its committed prefix so future
            # appends never land after garbage bytes.
            blob = b"".join(line + b"\n" for line in survivors)
            temp_path = self.wal_path + ".recover"
            with open(temp_path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.wal_path)
        return (replayed, torn)

    def append(self, key: str, outcome: SolveOutcome) -> None:
        """Append one committed verdict to the WAL (flushed before return).

        Takes the shard lease for the duration of the append. Any failure
        — a real IO error, a lost lease, an injected fault — leaves the
        WAL without a torn tail (the write is rolled back to its
        pre-append length when possible) and surfaces to the caller, who
        degrades to serve-without-persist.
        """
        if not self.persistent:
            return
        record = json.dumps(
            {"key": key, "outcome": outcome.to_dict()}, separators=(",", ":")
        )
        with self._lock:
            self._acquire_lease()
            try:
                if self._handle is None:
                    self._handle = open(self.wal_path, "a", encoding="utf-8")
                wal_size = os.path.getsize(self.wal_path)
                try:
                    rule = _faults.fire("shards.wal.append")
                    if rule is not None and rule.kind == "torn":
                        # A torn write: half the record reaches the file,
                        # then the "crash". The rollback below (and the
                        # torn-trim at recovery) must both cope.
                        self._handle.write(record[: max(1, len(record) // 2)])
                        self._handle.flush()
                        raise _faults.InjectedFault(
                            f"injected torn write at shards.wal.append "
                            f"(shard {self.index})"
                        )
                    self._handle.write(record + "\n")
                    # Flush to the OS so the record survives the *process*
                    # dying; fsync (off by default, it serialises on disk
                    # latency) also survives the machine dying.
                    self._handle.flush()
                    if self._fsync:
                        _faults.fire("shards.wal.fsync")
                        os.fsync(self._handle.fileno())
                except BaseException:
                    self._rollback(wal_size)
                    raise
                self.pending += 1
            finally:
                self.lease.release()

    def _rollback(self, wal_size: int) -> None:
        """Cut the WAL back to its pre-append length after a failed write."""
        try:
            self._handle.close()
        except OSError:
            pass
        self._handle = None
        try:
            os.truncate(self.wal_path, wal_size)
        except OSError:
            pass  # recovery's torn-record trim is the backstop

    def compact(self) -> int:
        """Merge snapshot + WAL + memory into a fresh snapshot; entry count.

        Runs under the shard lease. The merge (rather than a bare dump of
        this process's memory) is what makes compaction safe with N
        writers: records appended by *other* processes since this
        process's last replay live only in the WAL, and truncating it
        without folding them into the snapshot would lose them. Entries
        discovered in the merge are also adopted into this process's
        in-memory cache, so every writer's verdicts warm every server.
        """
        if not self.persistent:
            return len(self.cache)
        with self._lock:
            self._acquire_lease()
            try:
                if self._handle is not None:
                    self._handle.close()
                    self._handle = None
                merged = ResultCache(self._max_size)
                _load_snapshot(self.snapshot_path, merged)
                self._replay_wal(merged, trim=False)
                for _, outcome in self.cache.entries():
                    # Own entries last: anything this process served is
                    # present even if its WAL append failed (degraded
                    # spell) — the compaction heals the gap.
                    merged.put(outcome)
                _faults.fire("shards.snapshot.write")
                entries = _write_snapshot(self.snapshot_path, merged)
                # Truncate only after the snapshot is durably in place: a
                # crash in between leaves WAL records that replay to
                # entries the snapshot already holds — idempotent, never
                # lossy.
                with open(self.wal_path, "w", encoding="utf-8"):
                    pass
                self.pending = 0
                for key, outcome in merged.entries():
                    if key not in self.cache:
                        self.cache.put(outcome)
            finally:
                self.lease.release()
        return entries

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class ShardedResultCache:
    """A result cache split across ``N`` write-ahead-logged shard files.

    Drop-in for :class:`~repro.runtime.cache.ResultCache` at the
    ``get``/``put``/``stats`` surface, and the cache of both the batch
    runner and the solve service: every stored verdict is appended to its
    shard's write-ahead log before it becomes visible, so acknowledged
    results survive a crash at any instruction boundary, and recovery
    tolerates (and trims) a torn final record. Every WAL append,
    compaction and recovery replay runs under a per-shard cross-process
    lease (:class:`~repro.runtime.locks.FileLease`), so any number of
    batch and server processes can share one cache directory.

    Parameters
    ----------
    directory:
        Where the ``shard-NNN.json`` / ``shard-NNN.wal`` /
        ``shard-NNN.lock`` files live (created if missing, loaded if
        present). ``None`` keeps the cache purely in memory — same
        sharded interface, no persistence, no locks.
    shards:
        Number of shards; keys are assigned by :func:`shard_index`.
        Changing the count over an existing directory would misplace
        keys, so the count is persisted in ``shards.meta.json`` and a
        mismatch raises :class:`RuntimeSubsystemError`. ``None`` (the
        default) takes the directory's persisted count, and
        :data:`DEFAULT_SHARDS` for a new directory or an in-memory cache.
    shard_size:
        LRU capacity *per shard* (total capacity = ``shards * shard_size``).
    compact_threshold:
        WAL records per shard that trigger an automatic compaction;
        ``0`` disables auto-compaction (call :meth:`compact` yourself).
        Auto-compaction failures are absorbed (the WAL keeps growing and
        the next threshold retries); an explicit :meth:`compact` raises.
    fsync:
        ``True`` fsyncs every WAL append (survives power loss, slower);
        the default flushes to the OS (survives process death).
    lease_timeout:
        Heartbeat age (seconds) after which another process's shard
        lease counts as stale and is taken over — the recovery time
        after a server is SIGKILLed while holding a lock. Acquisitions
        wait up to twice this before raising
        :class:`~repro.exceptions.CacheLockError`.

    Failure contract: :meth:`put` raises
    :class:`~repro.exceptions.CachePersistError` when the verdict could
    not be durably appended (disk error, lost lease, injected fault) —
    *after* inserting it into the in-memory cache, so the caller can
    still serve it warm and degrade instead of failing. The next
    successful compaction folds such entries into the snapshot.
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        shards: Optional[int] = None,
        shard_size: int = 4096,
        compact_threshold: int = 1024,
        fsync: bool = False,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        if shards is not None and shards <= 0:
            raise RuntimeSubsystemError(
                f"shard count must be positive, got {shards}"
            )
        if compact_threshold < 0:
            raise RuntimeSubsystemError(
                f"compact_threshold must be >= 0, got {compact_threshold}"
            )
        if lease_timeout <= 0:
            raise RuntimeSubsystemError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        self._directory = os.fspath(directory) if directory is not None else None
        self._compact_threshold = compact_threshold
        self._lease_timeout = float(lease_timeout)
        self.replayed_records = 0
        self.torn_records = 0
        self.failed_compactions = 0
        if self._directory is not None:
            os.makedirs(self._directory, exist_ok=True)
            shards = self._check_meta(shards, shard_size)
        elif shards is None:
            shards = DEFAULT_SHARDS
        self._shards = [
            _Shard(index, self._directory, shard_size, fsync, lease_timeout)
            for index in range(shards)
        ]
        if self._directory is not None:
            self.load()

    def _check_meta(self, shards: Optional[int], shard_size: int) -> int:
        """The directory's shard count, persisted on first open.

        ``shards=None`` adopts the persisted count; an explicit count
        must match it.
        """
        meta_path = os.path.join(self._directory, "shards.meta.json")
        # The directory-level lease serialises first-writer meta creation:
        # two servers starting concurrently on a fresh directory must
        # agree on one shard count instead of racing the write.
        meta_lease = FileLease(
            os.path.join(self._directory, "cache.lock"),
            lease_timeout=self._lease_timeout,
        )
        meta_lease.acquire()
        try:
            if os.path.exists(meta_path):
                try:
                    with open(meta_path, "r", encoding="utf-8") as handle:
                        meta = json.load(handle)
                    existing = int(meta["shards"])
                except Exception as exc:  # noqa: BLE001 — persistence boundary
                    raise RuntimeSubsystemError(
                        f"cannot read shard metadata {meta_path!r}: {exc}"
                    ) from exc
                if shards is not None and existing != shards:
                    raise RuntimeSubsystemError(
                        f"cache directory {self._directory!r} was written with "
                        f"{existing} shards; reopening with {shards} would "
                        f"misplace keys"
                    )
                return existing
            if shards is None:
                shards = DEFAULT_SHARDS
            atomic_write_json(
                meta_path,
                {"version": 1, "shards": shards, "shard_size": shard_size},
            )
            return shards
        finally:
            meta_lease.release()

    @property
    def directory(self) -> Optional[str]:
        """The cache directory (``None`` for a purely in-memory cache)."""
        return self._directory

    @property
    def num_shards(self) -> int:
        """How many shards keys are split across."""
        return len(self._shards)

    @property
    def lease_timeout(self) -> float:
        """Seconds after which a dead holder's shard lease is reclaimed."""
        return self._lease_timeout

    @property
    def lock_takeovers(self) -> int:
        """Stale shard leases this cache has reclaimed from dead holders."""
        return sum(
            shard.lease.takeovers
            for shard in self._shards
            if shard.lease is not None
        )

    def __len__(self) -> int:
        return sum(len(shard.cache) for shard in self._shards)

    def _shard_for(self, key: str) -> _Shard:
        return self._shards[shard_index(key, len(self._shards))]

    def get(self, key: str) -> Optional[SolveOutcome]:
        """Look up a cached outcome (see :meth:`ResultCache.get`)."""
        return self._shard_for(key).cache.get(key)

    def put(self, outcome: SolveOutcome) -> bool:
        """Durably store a definitive outcome; ``False`` when not cacheable.

        Write-ahead contract: the WAL record is appended and flushed
        *before* the in-memory insert, so any outcome a concurrent reader
        can observe is already recoverable from disk. When the append
        fails, the outcome is inserted into memory anyway (the process
        keeps serving it warm) and :class:`CachePersistError` is raised
        so the caller can degrade; the next successful compaction folds
        the entry into the snapshot.
        """
        key = outcome.cache_key
        if not key or not outcome.is_definitive:
            return False
        shard = self._shard_for(key)
        try:
            shard.append(key, outcome)
        except (OSError, CacheLockError) as exc:
            shard.cache.put(outcome)
            raise CachePersistError(
                f"shard {shard.index} could not persist verdict "
                f"{key[:16]}...: {type(exc).__name__}: {exc}"
            ) from exc
        if _telemetry.active():
            _telemetry.emit("repro_cache_wal_records_total", shard=shard.index)
        stored = shard.cache.put(outcome)
        if (
            self._compact_threshold
            and shard.pending >= self._compact_threshold
        ):
            try:
                self._compact_shard(shard)
            except (OSError, RuntimeSubsystemError):
                # The verdict itself is safely in the WAL; a failed
                # auto-compaction only postpones folding. Count it and
                # let the next threshold (or an explicit compact) retry.
                self.failed_compactions += 1
        return stored

    def load(self) -> int:
        """Load every shard's snapshot and replay its WAL; returns entries.

        Tolerates a torn final WAL record per shard (dropped and trimmed);
        counts land in :attr:`replayed_records` / :attr:`torn_records`.
        Corrupt *snapshot* files raise :class:`RuntimeSubsystemError` —
        snapshots are written atomically, so damage there means something
        outside this library touched the file.
        """
        span = _telemetry.span("cache.shard.load")
        loaded = 0
        with span:
            for shard in self._shards:
                snapshot, replayed, torn = shard.load()
                loaded += snapshot + replayed
                self.replayed_records += replayed
                self.torn_records += torn
            if span.recording:
                span.set(
                    entries=loaded,
                    replayed=self.replayed_records,
                    torn=self.torn_records,
                )
        if _telemetry.active():
            if self.replayed_records:
                _telemetry.emit("repro_cache_wal_replayed_total", self.replayed_records)
            if self.torn_records:
                _telemetry.emit("repro_cache_wal_torn_total", self.torn_records)
        return loaded

    def _compact_shard(self, shard: _Shard) -> None:
        span = _telemetry.span("cache.shard.compact")
        with span:
            entries = shard.compact()
            if span.recording:
                span.set(shard=shard.index, entries=entries)
        if _telemetry.active():
            _telemetry.emit("repro_cache_compactions_total", shard=shard.index)
            _telemetry.emit("repro_cache_shard_entries", entries, shard=shard.index)

    def compact(self) -> int:
        """Snapshot every shard and truncate its WAL; returns total entries."""
        total = 0
        for shard in self._shards:
            self._compact_shard(shard)
            total += len(shard.cache)
        return total

    def close(self) -> None:
        """Compact (when persistent) and release every WAL file handle.

        Tolerates persist failures during the final compaction — closing
        must always succeed, and every acknowledged verdict is already in
        the WAL.
        """
        if self._directory is not None:
            try:
                self.compact()
            except (OSError, RuntimeSubsystemError):
                self.failed_compactions += 1
        for shard in self._shards:
            shard.close()

    @property
    def stats(self) -> CacheStats:
        """The merged :class:`CacheStats` snapshot across all shards."""
        return CacheStats.merged(shard.cache.stats for shard in self._shards)

    @property
    def shard_sizes(self) -> list[int]:
        """Entries currently held by each shard, in shard order."""
        return [len(shard.cache) for shard in self._shards]

    def __enter__(self) -> "ShardedResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
