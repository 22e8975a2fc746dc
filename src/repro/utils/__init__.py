"""Shared utilities: RNG management, running statistics, text plots/tables.

These helpers are deliberately dependency-light (NumPy only) so that every
other subpackage can rely on them without import cycles.
"""

from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.utils.stats import (
    RunningStats,
    confidence_interval,
    mean_confidence_halfwidth,
)
from repro.utils.ascii_plot import ascii_line_plot, ascii_histogram
from repro.utils.tables import format_table, format_markdown_table
from repro.utils.validation import (
    check_positive_int,
    check_nonnegative_int,
    check_positive_float,
    check_probability,
    check_in_choices,
)
from repro.utils.workspace import Workspace

__all__ = [
    "RandomState",
    "as_generator",
    "spawn_generators",
    "RunningStats",
    "confidence_interval",
    "mean_confidence_halfwidth",
    "ascii_line_plot",
    "ascii_histogram",
    "format_table",
    "format_markdown_table",
    "check_positive_int",
    "check_nonnegative_int",
    "check_positive_float",
    "check_probability",
    "check_in_choices",
    "Workspace",
]
