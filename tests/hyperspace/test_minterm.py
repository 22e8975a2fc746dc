"""Tests for repro.hyperspace.minterm (the exact hyperspace algebra)."""

from __future__ import annotations

import pytest

from repro.exceptions import HyperspaceError
from repro.hyperspace.minterm import MintermSet, cube_minterms, minterm_index_of


class TestMintermIndex:
    def test_index_of_assignment(self):
        assert minterm_index_of({1: True, 2: False, 3: True}, 3) == 0b101

    def test_missing_variable_raises(self):
        with pytest.raises(HyperspaceError):
            minterm_index_of({1: True}, 2)


class TestCubeMinterms:
    def test_unbound_selects_all(self):
        assert cube_minterms({}, 2).sum() == 4

    def test_single_binding_halves(self):
        mask = cube_minterms({1: False}, 3)
        assert mask.sum() == 4
        assert all((index & 1) == 0 for index in range(8) if mask[index])

    def test_full_binding_selects_one(self):
        mask = cube_minterms({1: True, 2: True}, 2)
        assert mask.sum() == 1 and mask[0b11]

    def test_out_of_range_binding(self):
        with pytest.raises(HyperspaceError):
            cube_minterms({4: True}, 3)
        with pytest.raises(HyperspaceError):
            cube_minterms({-1: True}, 3)


class TestMintermSetConstruction:
    def test_empty_and_full(self):
        assert MintermSet.empty(3).count() == 0
        assert MintermSet.full(3).count() == 8

    def test_from_indices(self):
        mset = MintermSet.from_indices(3, [0, 5])
        assert 0 in mset and 5 in mset and 3 not in mset

    def test_from_indices_out_of_range(self):
        with pytest.raises(HyperspaceError):
            MintermSet.from_indices(2, [4])

    def test_from_literal(self):
        mset = MintermSet.from_literal(2, -2)
        assert set(mset.indices()) == {0b00, 0b01}

    def test_from_clause(self):
        mset = MintermSet.from_clause(2, (1, 2))
        assert mset.count() == 3
        assert 0 not in mset  # only x1=x2=0 falsifies (x1+x2)

    def test_from_empty_clause(self):
        assert MintermSet.from_clause(2, ()).count() == 0

    def test_from_cube(self):
        mset = MintermSet.from_cube(3, {1: True})
        assert mset.count() == 4

    def test_variable_limit(self):
        with pytest.raises(HyperspaceError):
            MintermSet.empty(30)

    def test_bad_mask_shape(self):
        import numpy as np

        with pytest.raises(HyperspaceError):
            MintermSet(2, np.ones(3, dtype=bool))


class TestMintermSetAlgebra:
    def test_union_is_superposition(self):
        a = MintermSet.from_indices(2, [0])
        b = MintermSet.from_indices(2, [3])
        assert set((a | b).indices()) == {0, 3}

    def test_intersection_counts_common(self):
        a = MintermSet.from_indices(2, [0, 1, 2])
        b = MintermSet.from_indices(2, [1, 2, 3])
        assert (a & b).count() == 2
        assert a.correlation_count(b) == 2

    def test_difference_and_complement(self):
        a = MintermSet.full(2)
        b = MintermSet.from_indices(2, [0])
        assert (a - b).count() == 3
        assert b.complement().count() == 3

    def test_restrict(self):
        full = MintermSet.full(3)
        assert full.restrict({1: True}).count() == 4
        assert full.restrict({1: True, 2: False}).count() == 2

    def test_incompatible_sizes_raise(self):
        with pytest.raises(HyperspaceError):
            MintermSet.full(2) | MintermSet.full(3)

    def test_equality_and_hash(self):
        assert MintermSet.from_indices(2, [1]) == MintermSet.from_indices(2, [1])
        assert hash(MintermSet.from_indices(2, [1])) == hash(
            MintermSet.from_indices(2, [1])
        )
        assert MintermSet.from_indices(2, [1]) != MintermSet.from_indices(2, [2])

    def test_bool_len_iter(self):
        empty = MintermSet.empty(2)
        assert not empty and len(empty) == 0
        some = MintermSet.from_indices(2, [2])
        assert some and list(some) == [2]

    def test_assignments_iterate_members(self):
        mset = MintermSet.from_indices(2, [0b10])
        assignments = list(mset.assignments())
        assert len(assignments) == 1
        assert assignments[0] == {1: False, 2: True}

    def test_mask_is_copy(self):
        mset = MintermSet.full(2)
        mask = mset.mask
        mask[:] = False
        assert mset.count() == 4


class TestPopcount:
    VALUES = [0, 1, 0b1011, (1 << 64) - 1, (1 << 1000) | 12345, (1 << (1 << 20)) - 1]

    def test_fast_path_when_the_interpreter_has_it(self):
        from repro.hyperspace import minterm

        if hasattr(int, "bit_count"):
            assert minterm.popcount is int.bit_count
        else:
            assert minterm.popcount is minterm._popcount_bin

    def test_fallback_agrees_with_fast_path(self, monkeypatch):
        """Runs the pre-3.10 fallback on every interpreter."""
        from repro.core import symbolic
        from repro.cnf.generators import random_ksat
        from repro.hyperspace import minterm

        formulas = [random_ksat(8, 30, 3, seed=seed) for seed in range(5)]
        bindings = [{}, {1: True}, {2: False, 5: True}]

        def observe():
            counts = [minterm.popcount(value) for value in self.VALUES]
            for formula in formulas:
                engine = symbolic.SymbolicNBLEngine(formula)
                counts += [engine.model_count(b) for b in bindings]
                counts.append(MintermSet.from_clause(8, formula.clauses[0]).count())
            return counts

        fast = observe()
        monkeypatch.setattr(minterm, "popcount", minterm._popcount_bin)
        monkeypatch.setattr(symbolic, "popcount", minterm._popcount_bin)
        assert observe() == fast
        assert fast[: len(self.VALUES)] == [0, 1, 3, 64, 7, 1 << 20]
