"""Structured CNF instance families.

These are the standard "named" instances used in EDA/SAT research to probe
specific solver behaviours:

* :func:`pigeonhole_formula` — provably unsatisfiable for holes < pigeons,
  the classic hard family for resolution-based solvers;
* :func:`graph_coloring_formula` — SAT encodings of graph k-colouring, the
  intro's logic-synthesis-flavoured workload;
* :func:`parity_chain_formula` — XOR/parity chains in CNF, small but with a
  single satisfying assignment spread across all variables.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.cnf.formula import CNFFormula
from repro.exceptions import CNFError
from repro.utils.validation import check_nonnegative_int, check_positive_int


def pigeonhole_formula(pigeons: int, holes: int) -> CNFFormula:
    """The pigeonhole principle PHP(pigeons, holes) in CNF.

    Variable ``p_{i,j}`` ("pigeon i sits in hole j") is numbered
    ``(i - 1) * holes + j``. The formula asserts every pigeon sits somewhere
    and no hole hosts two pigeons; it is satisfiable iff
    ``pigeons <= holes``.
    """
    check_positive_int(pigeons, "pigeons")
    check_positive_int(holes, "holes")

    def var(i: int, j: int) -> int:
        return (i - 1) * holes + j

    clauses: list[list[int]] = []
    for i in range(1, pigeons + 1):
        clauses.append([var(i, j) for j in range(1, holes + 1)])
    for j in range(1, holes + 1):
        for i1, i2 in itertools.combinations(range(1, pigeons + 1), 2):
            clauses.append([-var(i1, j), -var(i2, j)])
    return CNFFormula(clauses, pigeons * holes)


def cycle_graph_edges(num_vertices: int) -> list[tuple[int, int]]:
    """Edges of the cycle graph ``C_n`` on vertices ``0..n-1``."""
    check_positive_int(num_vertices, "num_vertices")
    if num_vertices == 1:
        return []
    if num_vertices == 2:
        return [(0, 1)]
    return [(v, (v + 1) % num_vertices) for v in range(num_vertices)]


def complete_graph_edges(num_vertices: int) -> list[tuple[int, int]]:
    """Edges of the complete graph ``K_n`` on vertices ``0..n-1``."""
    check_positive_int(num_vertices, "num_vertices")
    return list(itertools.combinations(range(num_vertices), 2))


def graph_coloring_formula(
    edges: Iterable[tuple[int, int]],
    num_vertices: int,
    num_colors: int,
) -> CNFFormula:
    """CNF encoding of proper ``num_colors``-colouring of a graph.

    Vertices are ``0..num_vertices-1``; variable ``c_{v,k}`` ("vertex v takes
    colour k") is numbered ``v * num_colors + k + 1``. Constraints: every
    vertex takes at least one colour, at most one colour, and adjacent
    vertices differ.
    """
    check_positive_int(num_vertices, "num_vertices")
    check_positive_int(num_colors, "num_colors")

    def var(vertex: int, color: int) -> int:
        return vertex * num_colors + color + 1

    clauses: list[list[int]] = []
    for vertex in range(num_vertices):
        clauses.append([var(vertex, c) for c in range(num_colors)])
        for c1, c2 in itertools.combinations(range(num_colors), 2):
            clauses.append([-var(vertex, c1), -var(vertex, c2)])
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise CNFError(f"edge ({u}, {v}) references a vertex out of range")
        if u == v:
            raise CNFError(f"self-loop ({u}, {v}) cannot be properly coloured")
        for c in range(num_colors):
            clauses.append([-var(u, c), -var(v, c)])
    return CNFFormula(clauses, num_vertices * num_colors)


def parity_chain_formula(num_variables: int, parity: int = 1) -> CNFFormula:
    """CNF asserting ``x_1 XOR x_2 XOR ... XOR x_n = parity``.

    Encoded directly (without auxiliary variables) as the conjunction of all
    clauses that forbid assignments of the wrong parity; clause count grows
    as ``2^{n-1}``, so this is intended for the small ``n`` regimes the NBL
    engines operate in. The formula has exactly ``2^{n-1}`` models.
    """
    check_positive_int(num_variables, "num_variables")
    check_nonnegative_int(parity, "parity")
    if parity not in (0, 1):
        raise CNFError(f"parity must be 0 or 1, got {parity}")

    clauses: list[list[int]] = []
    for bits in itertools.product((0, 1), repeat=num_variables):
        if sum(bits) % 2 != parity:
            # Forbid this assignment: the clause is the disjunction of the
            # complemented literals of the assignment.
            clauses.append(
                [-(i + 1) if bit else i + 1 for i, bit in enumerate(bits)]
            )
    return CNFFormula(clauses, num_variables)


def all_equal_formula(num_variables: int) -> CNFFormula:
    """CNF asserting all variables take the same value (2 models)."""
    check_positive_int(num_variables, "num_variables")
    clauses: list[list[int]] = []
    for i in range(1, num_variables):
        clauses.append([-i, i + 1])
        clauses.append([i, -(i + 1)])
    if num_variables == 1:
        return CNFFormula([], 1)
    return CNFFormula(clauses, num_variables)
