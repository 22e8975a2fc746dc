"""Process-wide metrics: counters, gauges and histograms with exporters.

A :class:`MetricsRegistry` is a concurrent-safe collection of named metric
families; each family holds one instrument per label set (so
``repro_solver_decisions_total{solver="cdcl"}`` and ``...{solver="dpll"}``
are independent counters of one family). The registry exports to the
Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`)
and to JSON (:meth:`MetricsRegistry.to_json`).

Collection is off by default: the library records through
:func:`repro.telemetry.instrument.emit`, which reads the collection switch
before touching the process-wide registry, so an un-enabled process pays
one bool check per instrumentation site and allocates nothing.

The metric families emitted by the library itself are declared once, in
:data:`repro.telemetry.instrument.METRICS` (catalogued in
``docs/observability.md``); they follow the Prometheus conventions
(``_total`` suffix on counters, base units — seconds, ratios in [0, 1]).
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ReproError

#: Default histogram buckets for wall-clock durations, in seconds.
DEFAULT_TIME_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelPairs = Tuple[Tuple[str, str], ...]


def _canonical_labels(labels: Dict[str, Any]) -> LabelPairs:
    pairs = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ReproError(f"invalid metric label name {key!r}")
        pairs.append((key, str(labels[key])))
    return tuple(pairs)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: LabelPairs, extra: LabelPairs = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing value (events, work units).

    Obtained from :meth:`MetricsRegistry.counter`; never instantiate one
    outside a registry if you want it exported.
    """

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}{dict(self.labels)}, value={self._value})"


class Gauge:
    """A value that can go up and down (sizes, depths, ratios)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current value."""
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}{dict(self.labels)}, value={self._value})"


class Histogram:
    """Cumulative-bucket histogram of observations (Prometheus semantics).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    always exists, and the exported ``_bucket`` samples are cumulative.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ReproError(f"histogram {name} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ReproError(f"histogram {name} has duplicate buckets")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def bucket_counts(self) -> Dict[float, int]:
        """Cumulative count per upper bound (``inf`` = total)."""
        cumulative: Dict[float, int] = {}
        running = 0
        with self._lock:
            for bound, count in zip(self.buckets, self._counts):
                running += count
                cumulative[bound] = running
            cumulative[math.inf] = running + self._counts[-1]
        return cumulative

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}{dict(self.labels)}, "
            f"count={self._count}, sum={self._sum})"
        )


class _Family:
    __slots__ = ("name", "kind", "help_text", "buckets")

    def __init__(self, name, kind, help_text, buckets=None):
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.buckets = buckets


class MetricsRegistry:
    """A named collection of metric families, one instrument per label set.

    Instruments are get-or-create: asking twice for the same
    ``(name, labels)`` returns the same object, so call sites never hold
    references across configuration changes. Re-registering a name with a
    different kind raises :class:`~repro.exceptions.ReproError` — a family
    is one type forever, mirroring the Prometheus data model.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._metrics: Dict[Tuple[str, LabelPairs], Any] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------
    def _family(
        self, name: str, kind: str, help_text: str, buckets=None
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ReproError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ReproError(
                f"metric {name!r} is a {family.kind}, cannot re-register as {kind}"
            )
        elif help_text and not family.help_text:
            family.help_text = help_text
        return family

    def counter(self, name: str, help_text: str = "", **labels: Any) -> Counter:
        """Get or create the :class:`Counter` ``name`` with ``labels``."""
        key = (name, _canonical_labels(labels))
        with self._lock:
            self._family(name, "counter", help_text)
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = Counter(name, key[1])
            return metric

    def gauge(self, name: str, help_text: str = "", **labels: Any) -> Gauge:
        """Get or create the :class:`Gauge` ``name`` with ``labels``."""
        key = (name, _canonical_labels(labels))
        with self._lock:
            self._family(name, "gauge", help_text)
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = Gauge(name, key[1])
            return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> Histogram:
        """Get or create the :class:`Histogram` ``name`` with ``labels``.

        ``buckets`` applies on first registration of the family; later
        calls reuse the family's buckets so all label sets stay comparable.
        """
        key = (name, _canonical_labels(labels))
        with self._lock:
            family = self._family(
                name,
                "histogram",
                help_text,
                tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS,
            )
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = Histogram(
                    name, key[1], buckets=family.buckets
                )
            return metric

    # -- introspection -------------------------------------------------------
    def get(self, name: str, **labels: Any):
        """The instrument registered for ``(name, labels)`` or ``None``."""
        key = (name, _canonical_labels(labels))
        with self._lock:
            return self._metrics.get(key)

    def collect(self) -> List[Any]:
        """Every registered instrument, grouped by family, label-sorted."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda m: (m.name, m.labels))

    def reset(self) -> None:
        """Drop every family and instrument (a fresh registry)."""
        with self._lock:
            self._families.clear()
            self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    # -- exporters -----------------------------------------------------------
    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        by_family: Dict[str, List[Any]] = {}
        for metric in self.collect():
            by_family.setdefault(metric.name, []).append(metric)
        for name in sorted(by_family):
            family = self._families[name]
            if family.help_text:
                lines.append(f"# HELP {name} {family.help_text}")
            lines.append(f"# TYPE {name} {family.kind}")
            for metric in by_family[name]:
                if family.kind == "histogram":
                    for bound, count in metric.bucket_counts().items():
                        extra = (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket"
                            f"{_format_labels(metric.labels, extra)} {count}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(metric.labels)} "
                        f"{_format_value(metric.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(metric.labels)} {metric.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(metric.labels)} "
                        f"{_format_value(metric.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot: family metadata plus every sample."""
        families: Dict[str, Any] = {}
        for metric in self.collect():
            family = self._families[metric.name]
            entry = families.setdefault(
                metric.name,
                {"type": family.kind, "help": family.help_text, "samples": []},
            )
            sample: Dict[str, Any] = {"labels": dict(metric.labels)}
            if family.kind == "histogram":
                sample["count"] = metric.count
                sample["sum"] = metric.sum
                sample["buckets"] = {
                    ("+Inf" if bound == math.inf else repr(bound)): count
                    for bound, count in metric.bucket_counts().items()
                }
            else:
                sample["value"] = metric.value
            entry["samples"].append(sample)
        return families

    def __repr__(self) -> str:
        return f"MetricsRegistry(families={len(self._families)}, metrics={len(self._metrics)})"


#: The process-wide registry the library's instrumentation feeds.
_registry = MetricsRegistry()
#: Collection switch; read by :func:`metrics_active` on every hot path.
_enabled = False


def get_metrics() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _registry


def metrics_active() -> bool:
    """``True`` when metrics collection is enabled for this process."""
    return _enabled


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn on metrics collection (optionally swapping in ``registry``)."""
    global _registry, _enabled
    if registry is not None:
        _registry = registry
    _enabled = True
    return _registry


def disable_metrics() -> None:
    """Turn collection back off (the registry and its values survive)."""
    global _enabled
    _enabled = False


def write_metrics(path, registry: Optional[MetricsRegistry] = None) -> str:
    """Write the registry to ``path``; returns the chosen format.

    Paths ending in ``.json`` get the :meth:`MetricsRegistry.to_json`
    snapshot; anything else gets the Prometheus text format.
    """
    registry = registry if registry is not None else _registry
    import os

    text_path = os.fspath(path)
    if text_path.endswith(".json"):
        payload = json.dumps(registry.to_json(), indent=2, sort_keys=True)
        fmt = "json"
    else:
        payload = registry.to_prometheus()
        fmt = "prometheus"
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    return fmt
