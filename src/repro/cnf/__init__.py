"""CNF substrate: formulas, assignments, I/O and instance generators.

This subpackage is the Boolean-side foundation of the library. Every engine
(the NBL-SAT engines, the baseline solvers, the analog compiler) consumes
:class:`~repro.cnf.formula.CNFFormula` objects, whose clauses are canonical
tuples of DIMACS-signed ints (``3`` is ``x3``, ``-3`` is ``~x3``).
"""

from repro.cnf.formula import CNFFormula, evaluate_clause
from repro.cnf.assignment import Assignment
from repro.cnf.dimacs import (
    parse_dimacs,
    parse_dimacs_file,
    to_dimacs,
    write_dimacs_file,
)
from repro.cnf.evaluate import (
    evaluate_formula,
    count_models,
    enumerate_models,
    satisfying_minterm_mask,
)
from repro.cnf.generators import (
    random_ksat,
    planted_ksat,
    phase_transition_family,
)
from repro.cnf.structured import (
    pigeonhole_formula,
    graph_coloring_formula,
    parity_chain_formula,
    all_equal_formula,
    cycle_graph_edges,
    complete_graph_edges,
)
from repro.cnf.paper_instances import (
    section4_sat_instance,
    section4_unsat_instance,
    example5_instance,
    example6_instance,
    example7_instance,
    paper_instances,
)

__all__ = [
    "CNFFormula",
    "Assignment",
    "parse_dimacs",
    "parse_dimacs_file",
    "to_dimacs",
    "write_dimacs_file",
    "evaluate_clause",
    "evaluate_formula",
    "count_models",
    "enumerate_models",
    "satisfying_minterm_mask",
    "random_ksat",
    "planted_ksat",
    "phase_transition_family",
    "pigeonhole_formula",
    "graph_coloring_formula",
    "parity_chain_formula",
    "all_equal_formula",
    "cycle_graph_edges",
    "complete_graph_edges",
    "section4_sat_instance",
    "section4_unsat_instance",
    "example5_instance",
    "example6_instance",
    "example7_instance",
    "paper_instances",
]
