"""repro.runtime — high-throughput batch solving subsystem.

The rest of the library solves one formula at a time in-process; this
package is the serving layer in front of it:

* :mod:`repro.runtime.jobs` — :class:`SolveJob` / :class:`SolveOutcome`,
  the picklable unit of work and its transportable result, and the spec
  policy: which solvers exist, take seeds or samples, emit proofs, and
  the variable limits of the exponential ones;
* :mod:`repro.runtime.cache` — :class:`ResultCache`, an in-memory LRU
  keyed by the canonical ``(formula fingerprint, assumptions)`` pair;
* :mod:`repro.runtime.shards` — :class:`ShardedResultCache`, the one
  persistent cache, safe to share between processes: entries split
  across N shard files with per-shard write-ahead logs and
  merge-compaction (what ``repro batch`` and :mod:`repro.service` keep
  their verdicts in);
* :mod:`repro.runtime.locks` — :class:`FileLease`, the cross-process
  lock-file lease (atomic ``O_EXCL`` create, heartbeats, stale
  takeover) that lets several server processes share one cache
  directory;
* :mod:`repro.runtime.pool` — :func:`execute_job` and
  :class:`JobExecutor`, deterministic inline, threaded or multi-process
  job execution with per-job seed derivation and timeouts, shared by the
  batch runner and the solve service. A job naming the default
  ``"portfolio"`` spec runs one solver chosen by the formula's variable
  count: the paper's exact NBL engine up to 20 variables, CDCL above;
* :mod:`repro.runtime.batch` — :class:`BatchRunner`, directory/glob
  ingestion of DIMACS files with aggregate statistics.

Quickstart::

    from repro.runtime import BatchRunner

    runner = BatchRunner(solver="portfolio", workers=4)
    report = runner.run(["instances/"])
    print(report.to_text())
"""

from repro.runtime.batch import BatchReport, BatchRunner, discover_instances
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.jobs import SolveJob, SolveOutcome, solve_cache_key
from repro.runtime.locks import FileLease
from repro.runtime.pool import JobExecutor, derive_job_seed, execute_job
from repro.runtime.shards import ShardedResultCache, atomic_write_json, shard_index

__all__ = [
    "BatchReport",
    "BatchRunner",
    "CacheStats",
    "FileLease",
    "JobExecutor",
    "ResultCache",
    "ShardedResultCache",
    "SolveJob",
    "SolveOutcome",
    "atomic_write_json",
    "derive_job_seed",
    "discover_instances",
    "execute_job",
    "shard_index",
    "solve_cache_key",
]
