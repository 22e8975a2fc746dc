"""CNF substrate: formulas, assignments, I/O and instance generators.

This subpackage is the Boolean-side foundation of the library. Every engine
(the NBL-SAT engines, the baseline solvers, the analog compiler) consumes
:class:`~repro.cnf.formula.CNFFormula` objects, whose clauses are canonical
tuples of DIMACS-signed ints (``3`` is ``x3``, ``-3`` is ``~x3``).

Importing the package imports none of these names; each is imported from
its submodule on first use, so parsing and formula building never load
the NumPy-backed :mod:`~repro.cnf.evaluate` and :mod:`~repro.cnf.generators`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.cnf.formula": ("CNFFormula", "evaluate_clause"),
        "repro.cnf.assignment": ("Assignment",),
        "repro.cnf.dimacs": (
            "parse_dimacs",
            "parse_dimacs_file",
            "to_dimacs",
            "write_dimacs_file",
        ),
        "repro.cnf.evaluate": (
            "evaluate_formula",
            "count_models",
            "enumerate_models",
            "satisfying_minterm_mask",
        ),
        "repro.cnf.generators": (
            "random_ksat",
            "planted_ksat",
            "phase_transition_family",
        ),
        "repro.cnf.structured": (
            "pigeonhole_formula",
            "graph_coloring_formula",
            "parity_chain_formula",
            "all_equal_formula",
            "cycle_graph_edges",
            "complete_graph_edges",
        ),
        "repro.cnf.paper_instances": (
            "section4_sat_instance",
            "section4_unsat_instance",
            "example5_instance",
            "example6_instance",
            "example7_instance",
            "paper_instances",
        ),
    },
)

