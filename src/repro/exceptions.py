"""Exception hierarchy for the NBL-SAT reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to discriminate the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class CNFError(ReproError):
    """Raised for malformed CNF objects (bad literals, empty variables, ...)."""


class DimacsParseError(CNFError):
    """Raised when a DIMACS CNF file or string cannot be parsed."""


class AssignmentError(ReproError):
    """Raised for inconsistent or incomplete variable assignments."""


class NoiseConfigError(ReproError):
    """Raised when a noise carrier or noise bank is configured incorrectly."""


class HyperspaceError(ReproError):
    """Raised for invalid hyperspace constructions (bad bindings, sizes)."""


class EngineError(ReproError):
    """Raised when an NBL-SAT engine is used inconsistently."""


class SolverError(ReproError):
    """Raised by the baseline SAT solvers for invalid inputs or states."""


class SolverTimeoutError(SolverError):
    """Raised inside a solver when its cooperative wall-clock budget expires.

    :meth:`repro.solvers.base.SATSolver.solve` catches this and converts it
    into an ``UNKNOWN`` result, so callers only see the exception if they
    invoke the internal search directly.
    """


class PreprocessError(ReproError):
    """Raised by the preprocessing pipeline for invalid configurations or maps."""


class ProofError(ReproError):
    """Raised for malformed DRAT proofs or misused proof logs."""


class RuntimeSubsystemError(ReproError):
    """Raised by the batch runtime for invalid jobs or pool states."""


class CacheLockError(RuntimeSubsystemError):
    """Raised when a cross-process shard lease cannot be acquired in time.

    The solve service treats this as a *degradation* signal (serve the
    verdict without persisting it), never as a request failure.
    """


class CachePersistError(RuntimeSubsystemError):
    """Raised when a verdict could not be durably appended to its shard.

    The entry is still inserted into the in-memory cache before this is
    raised — the process keeps serving warm — and the next successful
    compaction folds the unpersisted entry into the snapshot, healing
    the gap. Callers (the solve service) degrade instead of failing.
    """


class FaultPlanError(ReproError):
    """Raised for malformed fault plans or unknown fault points/kinds."""


class ServiceError(ReproError):
    """Raised by :class:`repro.service.ServiceClient` for transport failures.

    Wraps connection resets, timeouts, abrupt EOF and torn response lines
    in one typed error, with the request ids still awaiting responses
    attached as :attr:`pending` so callers can re-submit them (safe:
    the server's cache/dedup layer absorbs duplicate solves).
    """

    def __init__(self, message: str, pending: tuple = ()) -> None:
        super().__init__(message)
        self.pending = tuple(pending)


class NetlistError(ReproError):
    """Raised for malformed analog netlists (dangling ports, cycles, ...)."""


class FrequencyPlanError(ReproError):
    """Raised when a sinusoid-based-logic frequency plan cannot be built."""


class ExperimentError(ReproError):
    """Raised by the experiment harness for invalid experiment setups."""
