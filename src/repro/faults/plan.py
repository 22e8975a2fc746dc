"""Deterministic fault plans: seeded, named faults at explicit fault points.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries, each naming
one *fault point* — a call site the library explicitly instrumented with
:func:`fire` — and one fault *kind*. The plan decides, deterministically,
which invocation of a fault point misbehaves: rules select by operation
index (``after`` / ``every`` / ``times``) and optionally by a seeded
per-point RNG (``probability``), so the same plan against the same
request sequence injects exactly the same faults, run after run. That
determinism is what makes chaos tests debuggable: a failing soak replays.

The generic kinds (``error``, ``delay``, ``kill``) are executed by
:func:`fire` itself; site-specific kinds (``torn``, ``drop``) are
returned to the call site, which knows how to tear its own write or drop
its own connection. The full point/kind catalogue lives in
``docs/faults.md``.

Plans install process-wide (:func:`install_plan`) or arrive from the
environment: when :envvar:`REPRO_FAULT_PLAN` names a JSON plan file, the
first :func:`active_plan` call loads it — which is how ``repro serve
--fault-plan`` reaches worker processes and test subprocesses.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import FaultPlanError
from repro.telemetry import instrument as _telemetry

#: Environment variable naming a JSON fault-plan file; loaded lazily by
#: :func:`active_plan` so child processes inherit the plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The fault-point catalogue: every site the library threads through
#: :func:`fire`, with the kinds that make sense there (documented in
#: ``docs/faults.md``). Rules naming an unknown point are rejected.
FAULT_POINTS = {
    "shards.wal.append": "appending one verdict record to a shard WAL",
    "shards.wal.fsync": "fsyncing a shard WAL after an append",
    "shards.snapshot.write": "writing a shard snapshot during compaction",
    "shards.lock.acquire": "acquiring a shard's cross-process lease",
    "server.response": "writing one response line back to a client",
    "client.send": "writing one request line to the server socket",
    "client.recv": "reading one response line from the server socket",
    "pool.execute": "executing one solve job inside a worker",
}

#: Fault kinds a rule may request.
KINDS = ("error", "delay", "torn", "drop", "kill")

#: Kinds executed by :func:`fire` itself; the rest are returned to the
#: call site for site-specific interpretation.
GENERIC_KINDS = frozenset({"error", "delay", "kill"})


class InjectedFault(OSError):
    """The exception raised by an ``error``-kind injected fault.

    Subclasses :class:`OSError` on purpose: fault points sit at IO
    boundaries (WAL appends, fsyncs, socket writes), and the code under
    test must survive an injected failure through exactly the handlers
    that would catch the real one.
    """


@dataclass
class FaultRule:
    """One deterministic fault: which point, which kind, which invocations.

    Attributes
    ----------
    point:
        A fault-point name from :data:`FAULT_POINTS`.
    kind:
        ``error`` raises :class:`InjectedFault`; ``delay`` sleeps
        ``delay_seconds``; ``kill`` SIGKILLs the current process;
        ``torn`` / ``drop`` are interpreted by the call site (partial
        write / abrupt connection close).
    after:
        Skip the first ``after`` invocations of the point.
    every:
        Fire on every ``every``-th eligible invocation (default 1: each).
    times:
        Stop after this many firings; ``0`` means unlimited.
    probability:
        Fire eligible invocations only with this probability, drawn from
        the plan's seeded per-point RNG (still deterministic for a fixed
        plan seed and call sequence).
    delay_seconds:
        Sleep duration for ``delay`` faults.
    message:
        Human-readable tag carried by the injected error.
    """

    point: str
    kind: str
    after: int = 0
    every: int = 1
    times: int = 1
    probability: float = 1.0
    delay_seconds: float = 0.01
    message: str = "injected fault"
    fired: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise FaultPlanError(
                f"unknown fault point {self.point!r}; "
                f"known: {sorted(FAULT_POINTS)}"
            )
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {list(KINDS)}"
            )
        if self.after < 0:
            raise FaultPlanError(f"'after' must be >= 0, got {self.after}")
        if self.every < 1:
            raise FaultPlanError(f"'every' must be >= 1, got {self.every}")
        if self.times < 0:
            raise FaultPlanError(f"'times' must be >= 0, got {self.times}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"'probability' must be in [0, 1], got {self.probability}"
            )
        if self.delay_seconds < 0:
            raise FaultPlanError(
                f"'delay_seconds' must be >= 0, got {self.delay_seconds}"
            )

    def matches(self, index: int, rng: random.Random) -> bool:
        """Does this rule fire on the ``index``-th invocation of its point?"""
        if index < self.after:
            return False
        if (index - self.after) % self.every != 0:
            return False
        if self.times and self.fired >= self.times:
            return False
        if self.probability < 1.0 and rng.random() >= self.probability:
            return False
        return True

    def to_dict(self) -> dict:
        """JSON-serialisable form (the plan-file rule format)."""
        return {
            "point": self.point,
            "kind": self.kind,
            "after": self.after,
            "every": self.every,
            "times": self.times,
            "probability": self.probability,
            "delay_seconds": self.delay_seconds,
            "message": self.message,
        }


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Thread-safe: invocation counters are kept under one lock, so a plan
    shared by the event loop and worker threads still fires each rule on
    exactly the invocations it names.

    Parameters
    ----------
    rules:
        The :class:`FaultRule` list (or dicts in the rule format).
    seed:
        Root of the per-point RNGs consulted by ``probability`` rules.
    """

    def __init__(self, rules=(), seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: list[FaultRule] = []
        for rule in rules:
            if isinstance(rule, dict):
                rule = FaultRule(**rule)
            elif not isinstance(rule, FaultRule):
                raise FaultPlanError(
                    f"rules must be FaultRule or dict, got {type(rule).__name__}"
                )
            self.rules.append(rule)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        self._by_point: dict[str, list[FaultRule]] = {}
        for rule in self.rules:
            self._by_point.setdefault(rule.point, []).append(rule)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Build a plan from its JSON object form ``{seed, rules}``."""
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"seed", "rules", "version"}
        if unknown:
            raise FaultPlanError(f"unknown fault-plan fields: {sorted(unknown)}")
        rules = payload.get("rules", [])
        if not isinstance(rules, list):
            raise FaultPlanError("'rules' must be a list of rule objects")
        try:
            return cls(rules=rules, seed=payload.get("seed", 0))
        except TypeError as exc:
            raise FaultPlanError(f"bad fault rule: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"unparsable fault plan: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan from a JSON file."""
        try:
            with open(os.fspath(path), "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {os.fspath(path)!r}: {exc}"
            ) from exc
        return cls.from_json(text)

    def to_dict(self) -> dict:
        """JSON-serialisable form accepted by :meth:`from_dict`."""
        return {
            "version": 1,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def save(self, path) -> None:
        """Write the plan as a JSON file (the ``--fault-plan`` format)."""
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def fire(self, point: str) -> Optional[FaultRule]:
        """Record one invocation of ``point``; the firing rule, if any.

        The first matching rule wins (rules are consulted in plan order);
        its ``fired`` counter and the point's invocation counter advance
        under the plan lock, so concurrent callers see a consistent,
        deterministic schedule.
        """
        if point not in FAULT_POINTS:
            raise FaultPlanError(f"unknown fault point {point!r}")
        with self._lock:
            index = self._counts.get(point, 0)
            self._counts[point] = index + 1
            for rule in self._by_point.get(point, ()):
                rng = self._rngs.get(point)
                if rng is None:
                    rng = self._rngs[point] = random.Random(
                        f"{self.seed}\x1f{point}"
                    )
                if rule.matches(index, rng):
                    rule.fired += 1
                    return rule
        return None

    @property
    def injected(self) -> dict[str, int]:
        """Total faults fired so far, by point name."""
        with self._lock:
            counts: dict[str, int] = {}
            for rule in self.rules:
                if rule.fired:
                    counts[rule.point] = counts.get(rule.point, 0) + rule.fired
            return counts


_plan: Optional[FaultPlan] = None
_env_checked = False
_install_lock = threading.Lock()


def install_plan(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active fault plan."""
    global _plan, _env_checked
    if not isinstance(plan, FaultPlan):
        raise FaultPlanError(
            f"install_plan needs a FaultPlan, got {type(plan).__name__}"
        )
    with _install_lock:
        _plan = plan
        _env_checked = True


def clear_plan() -> None:
    """Remove the active plan (and stop consulting the environment)."""
    global _plan, _env_checked
    with _install_lock:
        _plan = None
        _env_checked = True


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, loading :envvar:`REPRO_FAULT_PLAN` on first use."""
    global _plan, _env_checked
    if _plan is None and not _env_checked:
        with _install_lock:
            if _plan is None and not _env_checked:
                _env_checked = True
                path = os.environ.get(FAULT_PLAN_ENV)
                if path:
                    _plan = FaultPlan.load(path)
    return _plan


def fire(point: str) -> Optional[FaultRule]:
    """The fault-point hook: maybe inject a fault at ``point``.

    No-op (and near-free) without an active plan. When a rule fires, the
    generic kinds are executed here — ``error`` raises
    :class:`InjectedFault`, ``delay`` sleeps, ``kill`` SIGKILLs the
    process — and site-specific kinds (``torn``, ``drop``) are returned
    for the call site to enact. Every firing is counted in the
    ``repro_faults_injected_total`` metric family.
    """
    plan = active_plan()
    if plan is None:
        return None
    rule = plan.fire(point)
    if rule is None:
        return None
    if _telemetry.active():
        _telemetry.emit("repro_faults_injected_total", point=point, kind=rule.kind)
    if rule.kind == "delay":
        time.sleep(rule.delay_seconds)
        return rule
    if rule.kind == "error":
        raise InjectedFault(f"injected fault at {point}: {rule.message}")
    if rule.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return rule
