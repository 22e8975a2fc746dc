"""Documentation hygiene: every exported symbol carries a docstring.

The docs suite (``docs/api.md``) is generated by hand from the package
``__all__`` lists; this test keeps it honest by failing whenever a public
symbol (or a subsystem package itself) loses its docstring or its entry,
and whenever an entry names a symbol that no longer exists. The metric
catalogue and span table in ``docs/observability.md`` are checked against
``telemetry.METRICS`` and ``telemetry.SPAN_TAXONOMY``, and every CLI
command line in ``README.md`` and ``docs/*.md`` must parse.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import re
import shlex

import pytest

#: Every package whose ``__all__`` defines part of the public API surface.
PUBLIC_MODULES = (
    "repro",
    "repro.cnf",
    "repro.core",
    "repro.noise",
    "repro.hyperspace",
    "repro.solvers",
    "repro.hybrid",
    "repro.analog",
    "repro.sbl",
    "repro.rtw",
    "repro.analysis",
    "repro.experiments",
    "repro.incremental",
    "repro.preprocess",
    "repro.faults",
    "repro.proofs",
    "repro.runtime",
    "repro.service",
    "repro.telemetry",
)


#: ``repro.utils`` re-exports nothing (import each helper from its module),
#: but like every package it carries a docstring.
@pytest.mark.parametrize("module_name", PUBLIC_MODULES + ("repro.utils",))
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} has no module docstring"
    )


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_exported_symbols_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert exported, f"{module_name} does not declare __all__"
    undocumented = []
    for name in exported:
        symbol = getattr(module, name)
        if not (inspect.isclass(symbol) or callable(symbol)):
            continue  # constants (strings, tuples) carry no docstring
        doc = inspect.getdoc(symbol)
        if not doc or not doc.strip():
            undocumented.append(name)
    assert not undocumented, (
        f"{module_name} exports undocumented symbols: {undocumented}"
    )


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_exported_symbols_exist(module_name):
    """``__all__`` never names something the package does not define."""
    module = importlib.import_module(module_name)
    missing = [
        name for name in getattr(module, "__all__", ()) if not hasattr(module, name)
    ]
    assert not missing, f"{module_name}.__all__ names missing symbols: {missing}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_api_reference_covers_exports(module_name):
    """``docs/api.md`` mentions every exported symbol of every package."""
    reference = (
        pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
    ).read_text(encoding="utf-8")
    module = importlib.import_module(module_name)
    undocumented = [
        name for name in getattr(module, "__all__", ()) if name not in reference
    ]
    assert not undocumented, (
        f"docs/api.md does not mention {module_name} exports: {undocumented}"
    )


def _doc_table(heading):
    """Rows (lists of cells) of the first table under ``heading``."""
    text = (
        pathlib.Path(__file__).resolve().parent.parent / "docs" / "observability.md"
    ).read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    assert rows, f"no table under {heading!r} in docs/observability.md"
    return rows


def test_metric_catalogue_matches_declaration():
    """``docs/observability.md`` lists exactly the families in ``METRICS``."""
    from repro.telemetry import METRICS

    documented = set()
    for names, kind, labels, _meaning in _doc_table("## Metric catalogue"):
        label_names = () if labels == "—" else tuple(
            sorted(label.strip("`") for label in labels.split(", "))
        )
        for name in names.split(" / "):
            documented.add((name.strip("`"), kind, label_names))
    declared = {(name, kind, labels) for name, (kind, labels, _) in METRICS.items()}
    assert sorted(documented - declared) == [], "documented but not declared"
    assert sorted(declared - documented) == [], "declared but not documented"


def test_span_table_matches_taxonomy():
    """The span table lists ``SPAN_TAXONOMY``; ``cli.<command>`` covers ``cli.*``."""
    from repro.telemetry import SPAN_TAXONOMY

    documented = {row[0].strip("`") for row in _doc_table("## Span taxonomy")}
    assert any(name.startswith("cli.") for name in SPAN_TAXONOMY)
    declared = {
        "cli.<command>" if name.startswith("cli.") else name for name in SPAN_TAXONOMY
    }
    assert sorted(documented - declared) == [], "documented but not in taxonomy"
    assert sorted(declared - documented) == [], "in taxonomy but not documented"


def _api_table_rows():
    """``(modules, identifiers)`` per table row of ``docs/api.md``.

    ``modules`` are the backticked ``repro.*`` names in the row's ``##``
    heading; ``identifiers`` are the backticked names in its first cell,
    with any call signature (``fill(rng, out)``) cut off.
    """
    text = (
        pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
    ).read_text(encoding="utf-8")
    rows = []
    for section in text.split("\n## ")[1:]:
        heading, _, body = section.partition("\n")
        modules = re.findall(r"`(repro[\w.]*)`", heading)
        for line in body.splitlines():
            if line.startswith("| ") and not line.startswith("| ---"):
                first_cell = line.strip("|").split("|")[0]
                names = [
                    re.match(r"[\w.]+", ident).group()
                    for ident in re.findall(r"`([^`]+)`", first_cell)
                ]
                if modules and names:
                    rows.append((modules, names))
    assert rows, "no symbol tables found in docs/api.md"
    return rows


def _resolves(module_name, dotted):
    target = importlib.import_module(module_name)
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_api_reference_rows_name_existing_symbols():
    """Every symbol a ``docs/api.md`` table row names still exists."""
    stale = [
        f"{' / '.join(modules)}: {name}"
        for modules, names in _api_table_rows()
        for name in names
        if not any(_resolves(module, name) for module in modules)
    ]
    assert not stale, f"docs/api.md names symbols that do not exist: {stale}"


#: How a documented command line starts; what follows is the argv.
CLI_PREFIXES = ("repro ", "python -m repro.cli ")


def _documented_command_lines():
    """``(file, argv)`` for every CLI command line in README.md and docs/*.md.

    A line counts when it starts with one of :data:`CLI_PREFIXES`;
    backslash continuations are joined and ``#`` comments dropped.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    commands = []
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        lines = iter(path.read_text(encoding="utf-8").splitlines())
        for line in lines:
            command = line.strip()
            prefix = next((p for p in CLI_PREFIXES if command.startswith(p)), None)
            if prefix is None:
                continue
            while command.endswith("\\"):
                command = command[:-1] + " " + next(lines).strip()
            argv = shlex.split(command[len(prefix):], comments=True)
            commands.append((path.name, argv))
    return commands


def test_documented_command_lines_parse():
    """Every documented ``repro ...`` line is accepted by the CLI's parser."""
    from repro.cli import _build_parser

    commands = _documented_command_lines()
    assert len(commands) >= 20, "documented command lines went missing"
    rejected = []
    for name, argv in commands:
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            rejected.append(f"{name}: repro {' '.join(argv)}")
    assert not rejected, f"documented commands the CLI rejects: {rejected}"
