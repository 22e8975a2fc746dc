"""The metric declaration: ``METRICS``, ``emit`` and every call site.

``METRICS`` is the one place a metric family is named, typed, labelled and
described. These tests check the table's shape, ``emit``'s validation, and
— statically, by walking the AST of ``src/repro`` — that every ``emit``
call names a declared metric with exactly its declared labels, so a typo
fails here instead of raising in a metrics-enabled process.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.exceptions import ReproError
from repro.telemetry import METRICS, emit, enable_metrics, get_metrics

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: The only modules allowed to touch registry instruments directly.
REGISTRY_MODULES = {"telemetry/metrics.py", "telemetry/instrument.py"}


def _source_files():
    return sorted(SRC.rglob("*.py"))


def _metric_names(node):
    """The metric names a literal (or two-literal conditional) can take."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        branches = [node.body, node.orelse]
        if all(
            isinstance(b, ast.Constant) and isinstance(b.value, str)
            for b in branches
        ):
            return [b.value for b in branches]
    return None


def _emit_calls():
    """``(location, call)`` for every ``emit(...)`` call under ``src/repro``."""
    calls = []
    for path in _source_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name == "emit":
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                calls.append((where, node))
    return calls


class TestTable:
    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_entry_shape(self, name):
        kind, labels, help_text = METRICS[name]
        assert name.startswith("repro_")
        assert kind in ("counter", "gauge", "histogram")
        assert isinstance(labels, tuple) and list(labels) == sorted(labels)
        assert help_text and help_text.endswith(".")
        if kind == "counter":
            assert name.endswith("_total")
        if kind == "histogram":
            assert name.endswith("_seconds")


class TestEmit:
    def test_counter_adds_gauge_sets_histogram_observes(self):
        registry = enable_metrics()
        emit("repro_cache_hits_total")
        emit("repro_cache_hits_total", 2)
        emit("repro_cache_size", 7)
        emit("repro_cache_size", 3)
        emit("repro_pool_task_seconds", 0.5)
        assert registry.get("repro_cache_hits_total").value == 3.0
        assert registry.get("repro_cache_size").value == 3.0
        histogram = registry.get("repro_pool_task_seconds")
        assert histogram.count == 1 and histogram.sum == 0.5

    def test_help_text_comes_from_the_table(self):
        registry = enable_metrics()
        emit("repro_solver_runs_total", solver="cdcl", status="SAT")
        help_text = METRICS["repro_solver_runs_total"][2]
        assert f"# HELP repro_solver_runs_total {help_text}" in (
            registry.to_prometheus()
        )

    def test_undeclared_name_raises(self):
        enable_metrics()
        with pytest.raises(ReproError, match="not declared"):
            emit("repro_cache_hit_total")
        assert len(get_metrics()) == 0

    @pytest.mark.parametrize(
        "labels",
        [{}, {"solver": "cdcl"}, {"solver": "cdcl", "status": "SAT", "x": "1"}],
    )
    def test_wrong_label_set_raises(self, labels):
        enable_metrics()
        with pytest.raises(ReproError, match="takes labels"):
            emit("repro_solver_runs_total", **labels)
        assert len(get_metrics()) == 0


class TestCallSites:
    def test_every_emit_names_a_declared_metric_with_its_labels(self):
        calls = _emit_calls()
        assert calls, "no emit() call sites found under src/repro"
        problems = []
        for where, call in calls:
            if not call.args:
                problems.append(f"{where}: emit() without a metric name")
                continue
            names = _metric_names(call.args[0])
            if names is None:
                problems.append(
                    f"{where}: metric name must be a string literal "
                    "or a conditional of two literals"
                )
                continue
            if len(call.args) > 2:
                problems.append(f"{where}: labels must be keyword arguments")
            keywords = [kw.arg for kw in call.keywords]
            if None in keywords:
                problems.append(f"{where}: **labels cannot be checked statically")
                continue
            for name in names:
                if name not in METRICS:
                    problems.append(f"{where}: {name!r} is not declared in METRICS")
                elif tuple(sorted(keywords)) != METRICS[name][1]:
                    problems.append(
                        f"{where}: {name!r} takes labels {METRICS[name][1]}, "
                        f"call passes {tuple(sorted(keywords))}"
                    )
        assert not problems, "\n".join(problems)

    def test_every_declared_metric_is_emitted(self):
        emitted = set()
        for _, call in _emit_calls():
            emitted.update(_metric_names(call.args[0]) or ())
        assert sorted(set(METRICS) - emitted) == []

    def test_no_registry_instruments_outside_telemetry(self):
        offenders = []
        for path in _source_files():
            relative = path.relative_to(SRC).as_posix()
            if relative in REGISTRY_MODULES:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and getattr(node.func.value, "id", None) not in ("np", "numpy")
                ):
                    offenders.append(f"{relative}:{node.lineno}")
        assert offenders == [], f"metrics must go through emit(): {offenders}"
