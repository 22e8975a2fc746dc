"""Tests for repro.cnf.dimacs."""

from __future__ import annotations

import pytest

from repro.cnf.dimacs import (
    parse_dimacs,
    parse_dimacs_file,
    to_dimacs,
    write_dimacs_file,
)
from repro.cnf.formula import CNFFormula
from repro.exceptions import DimacsParseError

BASIC = """c example instance
p cnf 3 2
1 -2 0
2 3 0
"""


class TestParse:
    def test_basic(self):
        formula = parse_dimacs(BASIC)
        assert formula.num_variables == 3
        assert formula.num_clauses == 2
        assert formula.to_ints() == [[1, -2], [2, 3]]

    def test_clause_spanning_lines(self):
        text = "p cnf 3 1\n1\n-2 3 0\n"
        formula = parse_dimacs(text)
        assert formula.num_clauses == 1
        assert set(formula.clauses[0]) == {1, -2, 3}

    def test_multiple_clauses_on_one_line(self):
        formula = parse_dimacs("p cnf 2 2\n1 0 -2 0\n")
        assert formula.num_clauses == 2

    def test_trailing_clause_without_zero(self):
        formula = parse_dimacs("p cnf 2 1\n1 2")
        assert formula.num_clauses == 1

    def test_percent_terminator_ignored(self):
        formula = parse_dimacs("p cnf 1 1\n1 0\n%\n0\n")
        assert formula.num_clauses == 1

    def test_missing_problem_line(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("1 2 0\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")

    def test_malformed_problem_line(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p sat 3 2\n")

    def test_non_integer_literal(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 2 1\n1 x 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_negative_counts(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf -1 0\n")


class TestSerialize:
    def test_roundtrip(self):
        formula = CNFFormula.from_ints([[1, -2], [2, 3]], num_variables=4)
        parsed = parse_dimacs(to_dimacs(formula))
        assert parsed == formula

    def test_comments_included(self):
        text = to_dimacs(CNFFormula.from_ints([[1]]), comments=["hello"])
        assert text.startswith("c hello\n")

    def test_file_roundtrip(self, tmp_path):
        formula = CNFFormula.from_ints([[1, 2], [-1]], num_variables=2)
        path = tmp_path / "instance.cnf"
        write_dimacs_file(formula, path, comments=["generated for tests"])
        assert parse_dimacs_file(path) == formula
