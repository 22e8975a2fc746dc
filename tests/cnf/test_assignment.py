"""Tests for repro.cnf.assignment."""

from __future__ import annotations

import pytest

from repro.cnf.assignment import Assignment
from repro.exceptions import AssignmentError, CNFError


class TestConstruction:
    def test_from_dict(self):
        assignment = Assignment({1: True, 2: False})
        assert assignment[1] is True
        assert assignment[2] is False

    def test_from_literals(self):
        assignment = Assignment.from_literals([2, -3, 2])
        assert assignment.as_dict() == {2: True, 3: False}
        for bad in ([0], [True], [1.0]):
            with pytest.raises(CNFError):
                Assignment.from_literals(bad)

    def test_from_int_literals(self):
        assignment = Assignment.from_literals([1, -2])
        assert assignment[1] and not assignment[2]

    def test_conflicting_literals_raise(self):
        with pytest.raises(AssignmentError):
            Assignment.from_literals([1, -1])

    def test_invalid_variable_raises(self):
        with pytest.raises(AssignmentError):
            Assignment({0: True})
        with pytest.raises(AssignmentError):
            Assignment({-3: True})

    def test_from_minterm_index(self):
        assignment = Assignment.from_minterm_index(0b101, 3)
        assert assignment[1] is True
        assert assignment[2] is False
        assert assignment[3] is True

    def test_minterm_index_out_of_range(self):
        with pytest.raises(AssignmentError):
            Assignment.from_minterm_index(8, 3)


class TestMappingProtocol:
    def test_unassigned_getitem_raises(self):
        with pytest.raises(AssignmentError):
            Assignment()[1]

    def test_get_default(self):
        assert Assignment().get(1) is None
        assert Assignment().get(1, True) is True

    def test_contains_len_iter(self):
        assignment = Assignment({2: True, 1: False})
        assert 1 in assignment and 3 not in assignment
        assert len(assignment) == 2
        assert list(assignment) == [1, 2]

    def test_items_sorted(self):
        assignment = Assignment({3: True, 1: False})
        assert list(assignment.items()) == [(1, False), (3, True)]

    def test_equality_with_dict(self):
        assert Assignment({1: True}) == {1: True}

    def test_hashable(self):
        assert len({Assignment({1: True}), Assignment({1: True})}) == 1


class TestHelpers:
    def test_is_complete(self):
        assert Assignment({1: True, 2: False}).is_complete(2)
        assert not Assignment({1: True}).is_complete(2)

    def test_extended_does_not_mutate(self):
        base = Assignment({1: True})
        extended = base.extended(2, False)
        assert 2 not in base and extended[2] is False

    def test_extended_conflict_raises(self):
        with pytest.raises(AssignmentError):
            Assignment({1: True}).extended(1, False)

    def test_updated(self):
        merged = Assignment({1: True}).updated({2: False})
        assert merged[1] and not merged[2]

    def test_satisfies_literal(self):
        assignment = Assignment({1: True})
        assert assignment.satisfies_literal(1) is True
        assert assignment.satisfies_literal(-1) is False
        assert assignment.satisfies_literal(2) is None

    def test_minterm_roundtrip(self):
        for index in range(8):
            assignment = Assignment.from_minterm_index(index, 3)
            assert assignment.to_minterm_index(3) == index

    def test_to_minterm_index_requires_complete(self):
        with pytest.raises(AssignmentError):
            Assignment({1: True}).to_minterm_index(2)

    def test_to_literals_and_str(self):
        assignment = Assignment({1: False, 2: True})
        assert assignment.to_literals() == [-1, 2]
        assert str(assignment) == "~x1 x2"

    def test_empty_str(self):
        assert "empty" in str(Assignment())
