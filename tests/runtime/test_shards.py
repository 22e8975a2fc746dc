"""Tests for repro.runtime.shards: WAL durability, recovery, compaction."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exceptions import RuntimeSubsystemError
from repro.runtime.jobs import SolveOutcome
from repro.runtime.shards import ShardedResultCache, atomic_write_json, shard_index


def _outcome(fingerprint: str, status: str = "SAT", **overrides) -> SolveOutcome:
    fields = dict(
        job_id=f"job-{fingerprint}",
        status=status,
        solver="cdcl",
        fingerprint=fingerprint,
        verified=True,
        assignment=(1,) if status == "SAT" else None,
    )
    fields.update(overrides)
    return SolveOutcome(**fields)


class TestShardIndex:
    def test_in_range_and_stable(self):
        for key in ("a", "fingerprint-1", "x" * 64):
            index = shard_index(key, 8)
            assert 0 <= index < 8
            assert shard_index(key, 8) == index  # deterministic

    def test_distributes(self):
        indices = {shard_index(f"key-{i}", 8) for i in range(200)}
        assert len(indices) == 8  # every shard gets keys


class TestInMemory:
    def test_put_get_roundtrip(self):
        cache = ShardedResultCache(directory=None, shards=4)
        assert cache.put(_outcome("fp1"))
        hit = cache.get("fp1")
        assert hit is not None and hit.status == "SAT" and hit.from_cache
        assert cache.get("missing") is None
        assert len(cache) == 1

    def test_refuses_non_definitive(self):
        cache = ShardedResultCache(directory=None, shards=2)
        assert not cache.put(_outcome("fp1", status="UNKNOWN", verified=False))
        assert not cache.put(_outcome("", status="SAT"))  # no key
        assert len(cache) == 0

    def test_stats_and_shard_sizes(self):
        cache = ShardedResultCache(directory=None, shards=4)
        for i in range(10):
            cache.put(_outcome(f"fp-{i}"))
        cache.get("fp-0")
        cache.get("nope")
        stats = cache.stats
        assert stats.size == 10
        assert stats.hits == 1 and stats.misses == 1
        assert sum(cache.shard_sizes) == 10

    def test_bad_parameters(self):
        with pytest.raises(RuntimeSubsystemError):
            ShardedResultCache(shards=0)
        with pytest.raises(RuntimeSubsystemError):
            ShardedResultCache(compact_threshold=-1)


class TestPersistence:
    def test_wal_survives_unclean_exit(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ShardedResultCache(directory=directory, shards=4)
        for i in range(8):
            cache.put(_outcome(f"fp-{i}"))
        # No close(), no compact(): simulate the process dying. Every
        # put() already flushed its WAL record, so a fresh instance must
        # recover all eight entries from the logs alone.
        reopened = ShardedResultCache(directory=directory, shards=4)
        assert len(reopened) == 8
        assert reopened.replayed_records == 8
        assert reopened.torn_records == 0
        for i in range(8):
            assert reopened.get(f"fp-{i}") is not None

    def test_snapshot_roundtrip_after_close(self, tmp_path):
        directory = str(tmp_path / "cache")
        with ShardedResultCache(directory=directory, shards=4) as cache:
            for i in range(5):
                cache.put(_outcome(f"fp-{i}"))
        # close() compacted: WALs are empty, snapshots hold everything.
        reopened = ShardedResultCache(directory=directory, shards=4)
        assert len(reopened) == 5
        assert reopened.replayed_records == 0

    def test_torn_final_record_dropped_and_trimmed(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ShardedResultCache(directory=directory, shards=1)
        for i in range(3):
            cache.put(_outcome(f"fp-{i}"))
        cache.close()  # compacts; now append committed + torn records
        cache = ShardedResultCache(directory=directory, shards=1)
        cache.put(_outcome("fp-committed"))
        wal_path = os.path.join(directory, "shard-000.wal")
        with open(wal_path, "a", encoding="utf-8") as handle:
            # A crash mid-append leaves a truncated JSON line.
            handle.write('{"key": "fp-torn", "outcome": {"job_id"')

        reopened = ShardedResultCache(directory=directory, shards=1)
        assert reopened.get("fp-committed") is not None
        assert reopened.get("fp-torn") is None
        assert reopened.torn_records == 1
        assert reopened.replayed_records == 1
        # The log was trimmed back to its committed prefix...
        with open(wal_path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        assert len(lines) == 1 and json.loads(lines[0])["key"] == "fp-committed"
        # ...so the next recovery sees a clean log.
        third = ShardedResultCache(directory=directory, shards=1)
        assert third.torn_records == 0
        assert third.get("fp-committed") is not None

    def test_garbage_after_torn_record_not_replayed(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ShardedResultCache(directory=directory, shards=1)
        cache.put(_outcome("fp-good"))
        wal_path = os.path.join(directory, "shard-000.wal")
        record = json.dumps({"key": "fp-after", "outcome": _outcome("fp-after").to_dict()})
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(record + "\n")
        # Everything after the first bad line is suspect in an append-only
        # log: the committed prefix survives, the rest is dropped.
        reopened = ShardedResultCache(directory=directory, shards=1)
        assert reopened.get("fp-good") is not None
        assert reopened.get("fp-after") is None
        assert reopened.torn_records == 2

    def test_stale_preprocessed_records_skipped(self, tmp_path):
        # Earlier releases keyed preprocessed verdicts on the reduced
        # formula and marked them with a non-null ``solved_assumptions``.
        # Replay and compaction skip such records without calling them
        # torn: the records around them are still served.
        directory = str(tmp_path / "cache")
        os.makedirs(directory)
        poisoned = _outcome("reduced-fp", assignment=(2,)).to_dict()
        poisoned["solved_assumptions"] = []
        atomic_write_json(
            os.path.join(directory, "shard-000.json"),
            {
                "version": 2,
                "entries": [
                    {"key": "fp-snap", "outcome": _outcome("fp-snap").to_dict()},
                    {"key": "original-fp", "outcome": poisoned},
                ],
            },
        )
        with open(
            os.path.join(directory, "shard-000.wal"), "w", encoding="utf-8"
        ) as handle:
            for key, outcome in (
                ("fp-before", _outcome("fp-before").to_dict()),
                ("reduced-fp", poisoned),
                ("fp-after", _outcome("fp-after").to_dict()),
            ):
                handle.write(json.dumps({"key": key, "outcome": outcome}) + "\n")
        reopened = ShardedResultCache(directory=directory, shards=1)
        assert reopened.torn_records == 0
        assert reopened.replayed_records == 2
        for key in ("fp-snap", "fp-before", "fp-after"):
            assert reopened.get(key) is not None
        for key in ("reduced-fp", "original-fp"):
            assert reopened.get(key) is None
        assert reopened.compact() == 3
        with open(os.path.join(directory, "shard-000.json"), encoding="utf-8") as f:
            snapshot = json.load(f)
        assert sorted(entry["key"] for entry in snapshot["entries"]) == [
            "fp-after",
            "fp-before",
            "fp-snap",
        ]

    def test_records_with_racer_timings_still_load(self, tmp_path):
        # Earlier releases raced several solvers for a default job and
        # stored per-racer timings and verdicts with every outcome.
        directory = str(tmp_path / "cache")
        os.makedirs(directory)
        raced = _outcome("fp-raced", solver="portfolio", winner="dpll").to_dict()
        raced["contender_seconds"] = {"nbl-symbolic": 0.0, "dpll": 0.01}
        raced["contender_status"] = {"dpll": "SAT"}
        with open(
            os.path.join(directory, "shard-000.wal"), "w", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps({"key": "fp-raced", "outcome": raced}) + "\n")
        reopened = ShardedResultCache(directory=directory, shards=1)
        assert reopened.torn_records == 0
        hit = reopened.get("fp-raced")
        assert hit is not None and hit.status == "SAT" and hit.winner == "dpll"
        assert "contender_seconds" not in hit.to_dict()

    def test_auto_compaction_at_threshold(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ShardedResultCache(
            directory=directory, shards=1, compact_threshold=3
        )
        for i in range(3):
            cache.put(_outcome(f"fp-{i}"))
        wal_path = os.path.join(directory, "shard-000.wal")
        assert os.path.getsize(wal_path) == 0  # threshold hit: WAL folded
        snapshot = os.path.join(directory, "shard-000.json")
        assert os.path.exists(snapshot)
        reopened = ShardedResultCache(directory=directory, shards=1)
        assert len(reopened) == 3 and reopened.replayed_records == 0

    def test_manual_compact_returns_entries(self, tmp_path):
        cache = ShardedResultCache(directory=str(tmp_path / "c"), shards=2)
        for i in range(4):
            cache.put(_outcome(f"fp-{i}"))
        assert cache.compact() == 4

    def test_shard_count_pinned(self, tmp_path):
        directory = str(tmp_path / "cache")
        ShardedResultCache(directory=directory, shards=4).close()
        with pytest.raises(RuntimeSubsystemError, match="misplace"):
            ShardedResultCache(directory=directory, shards=8)

    def test_unnamed_shard_count_adopts_the_directory(self, tmp_path):
        directory = str(tmp_path / "cache")
        with ShardedResultCache(directory=directory, shards=16) as cache:
            cache.put(_outcome("fp-16"))
        reopened = ShardedResultCache(directory=directory)
        assert reopened.num_shards == 16
        assert reopened.get("fp-16") is not None
        fresh = ShardedResultCache(directory=str(tmp_path / "fresh"))
        assert fresh.num_shards == 8
        assert ShardedResultCache().num_shards == 8

    def test_replay_idempotent_over_snapshot(self, tmp_path):
        # A crash between snapshot and WAL truncation leaves records that
        # replay to entries the snapshot already holds — allowed, lossless.
        directory = str(tmp_path / "cache")
        cache = ShardedResultCache(directory=directory, shards=1)
        cache.put(_outcome("fp-dup"))
        wal_path = os.path.join(directory, "shard-000.wal")
        with open(wal_path, "r", encoding="utf-8") as handle:
            wal_before = handle.read()
        cache.compact()
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write(wal_before)  # resurrect the pre-compaction WAL
        reopened = ShardedResultCache(directory=directory, shards=1)
        assert len(reopened) == 1
        assert reopened.get("fp-dup") is not None


_WRITER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.runtime.shards import ShardedResultCache
from repro.runtime.jobs import SolveOutcome

cache = ShardedResultCache(directory={directory!r}, shards=4)
for i in range(100000):
    fp = f"fp-{{i}}"
    cache.put(SolveOutcome(
        job_id=f"job-{{i}}", status="SAT", solver="cdcl",
        fingerprint=fp, verified=True, assignment=(1,),
    ))
    # An acked key is printed only after put() returned, i.e. after the
    # WAL record was flushed to the OS.
    print(fp, flush=True)
"""


class TestCrashRecovery:
    def test_sigkill_mid_write_loses_no_acked_verdict(self, tmp_path):
        """Kill a writer process mid-stream; every acked key must survive."""
        directory = str(tmp_path / "cache")
        src = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "src"
        )
        script = _WRITER_SCRIPT.format(
            src=os.path.abspath(src), directory=directory
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
        )
        acked = []
        try:
            # Let it commit a healthy number of verdicts, then kill it at
            # an arbitrary instruction boundary (possibly mid-append).
            deadline = time.monotonic() + 30
            while len(acked) < 50 and time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                acked.append(line.strip())
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert len(acked) >= 50, "writer produced too few acks to test"

        recovered = ShardedResultCache(directory=directory, shards=4)
        missing = [key for key in acked if recovered.get(key) is None]
        assert not missing, f"acked verdicts lost in the crash: {missing}"
        # At most one torn (unacked) trailing record per shard can exist.
        assert recovered.torn_records <= 4
        # Recovery trimmed the logs: a second open sees no torn records.
        again = ShardedResultCache(directory=directory, shards=4)
        assert again.torn_records == 0
        assert not [key for key in acked if again.get(key) is None]
