"""Tests for repro.runtime.cache (and the formula fingerprint it keys on)."""

from __future__ import annotations

import pytest

from repro.cnf.formula import CNFFormula
from repro.exceptions import RuntimeSubsystemError
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import SolveOutcome
from repro.runtime.shards import ShardedResultCache, atomic_write_json


def _outcome(fingerprint: str, status: str = "SAT", **kwargs) -> SolveOutcome:
    defaults = dict(
        job_id=f"job-{fingerprint}",
        status=status,
        solver="portfolio",
        fingerprint=fingerprint,
        verified=True,
    )
    defaults.update(kwargs)
    return SolveOutcome(**defaults)


class TestFingerprintKeying:
    def test_clause_reordering_is_invariant(self):
        a = CNFFormula.from_ints([[1, 2], [-1, -2], [2, 3]])
        b = CNFFormula.from_ints([[2, 3], [1, 2], [-1, -2]])
        assert a.fingerprint() == b.fingerprint()

    def test_literal_reordering_is_invariant(self):
        a = CNFFormula.from_ints([[1, 2, -3]])
        b = CNFFormula.from_ints([[-3, 2, 1]])
        assert a.fingerprint() == b.fingerprint()

    def test_different_clauses_differ(self):
        a = CNFFormula.from_ints([[1, 2]])
        b = CNFFormula.from_ints([[1, -2]])
        assert a.fingerprint() != b.fingerprint()

    def test_num_variables_is_part_of_the_key(self):
        a = CNFFormula.from_ints([[1]], num_variables=1)
        b = CNFFormula.from_ints([[1]], num_variables=3)
        assert a.fingerprint() != b.fingerprint()

    def test_cache_serves_reordered_formula(self):
        cache = ResultCache()
        a = CNFFormula.from_ints([[1, 2], [-1, -2]])
        b = CNFFormula.from_ints([[-1, -2], [1, 2]])
        assert cache.put(_outcome(a.fingerprint()))
        hit = cache.get(b.fingerprint())
        assert hit is not None and hit.from_cache


class TestLRUBehaviour:
    def test_eviction_order(self):
        cache = ResultCache(max_size=2)
        cache.put(_outcome("a"))
        cache.put(_outcome("b"))
        assert cache.get("a") is not None  # refresh "a"
        cache.put(_outcome("c"))  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.stats.evictions == 1

    def test_max_size_must_be_positive(self):
        with pytest.raises(RuntimeSubsystemError):
            ResultCache(max_size=0)


class TestCacheability:
    def test_unknown_outcomes_are_not_cached(self):
        cache = ResultCache()
        assert not cache.put(_outcome("x", status="UNKNOWN", verified=False))
        assert len(cache) == 0

    def test_unverified_outcomes_are_not_cached(self):
        cache = ResultCache()
        assert not cache.put(_outcome("x", status="UNSAT", verified=False))
        assert len(cache) == 0

    def test_missing_fingerprint_is_not_cached(self):
        cache = ResultCache()
        assert not cache.put(_outcome(""))


class TestStatsAndServing:
    def test_hit_rate(self):
        cache = ResultCache()
        cache.put(_outcome("a"))
        cache.get("a")
        cache.get("missing")
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_served_copy_is_independent(self):
        cache = ResultCache()
        cache.put(_outcome("a", elapsed_seconds=1.5))
        served = cache.get("a")
        assert served.from_cache and served.elapsed_seconds == 0.0
        served.status = "MUTATED"
        assert cache.get("a").status == "SAT"


class TestPersistence:
    """Persistence is the sharded cache's: verdicts survive a reopen."""

    def test_save_load_roundtrip(self, tmp_path):
        directory = tmp_path / "cache"
        with ShardedResultCache(directory) as cache:
            cache.put(_outcome("a", assignment=(1, -2)))
            cache.put(
                _outcome(
                    "b",
                    status="UNSAT",
                    assignment=None,
                    assumptions=(1, -3),
                    core=(-3,),
                    proof="proofs/b.drat",
                )
            )
            assert len(cache) == 2

        fresh = ShardedResultCache(directory)
        assert len(fresh) == 2
        hit = fresh.get("a")
        assert hit.assignment == (1, -2) and hit.status == "SAT"
        unsat = fresh.get(_outcome("b", assumptions=(1, -3)).cache_key)
        assert unsat.status == "UNSAT"
        assert unsat.assumptions == (1, -3)
        assert unsat.core == (-3,) and unsat.proof == "proofs/b.drat"

    def test_load_skips_stale_preprocessed_entries(self, tmp_path):
        # Earlier releases stored preprocessed verdicts under the reduced
        # formula's key (and aliased them under the original's), marking
        # them with a non-null ``solved_assumptions``. Those entries can
        # answer a formula their model does not satisfy: never serve them.
        poisoned = _outcome("reduced-fp", assignment=(2,)).to_dict()
        poisoned["solved_assumptions"] = []
        directory = tmp_path / "cache"
        directory.mkdir()
        atomic_write_json(
            directory / "shard-000.json",
            {
                "version": 2,
                "entries": [
                    {"key": "a", "outcome": _outcome("a").to_dict()},
                    {"key": "reduced-fp", "outcome": poisoned},
                    {"key": "original-fp", "outcome": poisoned},
                    {"key": "b", "outcome": _outcome("b").to_dict()},
                ],
            },
        )
        fresh = ShardedResultCache(directory, shards=1)
        assert len(fresh) == 2
        assert fresh.get("a") is not None and fresh.get("b") is not None
        assert fresh.get("reduced-fp") is None
        assert fresh.get("original-fp") is None

    def test_load_rejects_garbage(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / "shard-000.json").write_text("not json at all")
        with pytest.raises(RuntimeSubsystemError):
            ShardedResultCache(directory, shards=1)
