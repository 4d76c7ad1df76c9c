"""Tests for the DHT-derived overlay trees."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregationSystem
from repro.consistency import check_strict_consistency
from repro.tree.overlay import (
    common_prefix_length,
    key_tree_family,
    plaxton_tree,
    random_membership,
)
from repro.workloads import uniform_workload
from repro.workloads.requests import copy_sequence


class TestCommonPrefix:
    def test_basic(self):
        assert common_prefix_length(0b1010, 0b1011, 4) == 3
        assert common_prefix_length(0b1010, 0b0010, 4) == 0
        assert common_prefix_length(7, 7, 4) == 4

    def test_range_check(self):
        with pytest.raises(ValueError):
            common_prefix_length(16, 0, 4)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_symmetry(self, a, b):
        assert common_prefix_length(a, b, 8) == common_prefix_length(b, a, 8)


class TestPlaxtonTree:
    def test_validation(self):
        with pytest.raises(ValueError):
            plaxton_tree([], key=0)
        with pytest.raises(ValueError):
            plaxton_tree([1, 1], key=0)
        with pytest.raises(ValueError):
            plaxton_tree([1 << 40], key=0, bits=32)
        with pytest.raises(ValueError):
            plaxton_tree([1], key=1 << 40, bits=32)

    def test_single_member(self):
        overlay = plaxton_tree([5], key=9, bits=8)
        assert overlay.tree.n == 1
        assert overlay.root == 0

    def test_root_is_best_match(self):
        ids = [0b0000, 0b1000, 0b1100, 0b1110]
        overlay = plaxton_tree(ids, key=0b1111, bits=4)
        assert overlay.ids[overlay.root] == 0b1110

    def test_exact_key_member_is_root(self):
        ids = [3, 9, 12, 7]
        overlay = plaxton_tree(ids, key=9, bits=4)
        assert overlay.ids[overlay.root] == 9

    def test_parents_strictly_improve_key_match(self):
        ids = random_membership(40, bits=16, seed=3)
        overlay = plaxton_tree(ids, key=0x1234, bits=16)
        parents = overlay.tree.bfs_parents(overlay.root)
        for i in range(overlay.tree.n):
            if i == overlay.root:
                continue
            me = common_prefix_length(overlay.ids[i], overlay.key, 16)
            up = common_prefix_length(overlay.ids[parents[i]], overlay.key, 16)
            assert up >= me  # surrogate-attachment ties allowed at the root
            if parents[i] != overlay.root:
                assert up > me

    def test_depth_bounded_by_bits(self):
        ids = random_membership(60, bits=12, seed=7)
        overlay = plaxton_tree(ids, key=0xABC, bits=12)
        depths = overlay.tree.depths(overlay.root)
        assert max(depths) <= 12 + 1

    @given(st.integers(0, 10_000), st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_always_a_tree(self, seed, n):
        ids = random_membership(n, bits=16, seed=seed)
        overlay = plaxton_tree(ids, key=seed % (1 << 16), bits=16)
        assert overlay.tree.n == n  # Tree() validates connectivity/acyclicity

    def test_deterministic(self):
        ids = random_membership(20, bits=16, seed=1)
        a = plaxton_tree(ids, key=0x1111, bits=16)
        b = plaxton_tree(ids, key=0x1111, bits=16)
        assert a.tree == b.tree and a.root == b.root

    def test_node_of_lookup(self):
        ids = [3, 9, 12]
        overlay = plaxton_tree(ids, key=0, bits=4)
        assert overlay.ids[overlay.node_of(9)] == 9
        with pytest.raises(KeyError):
            overlay.node_of(99)


class TestKeyFamily:
    def test_different_keys_different_roots(self):
        ids = random_membership(50, bits=16, seed=5)
        family = key_tree_family(ids, keys=[0x0000, 0xFFFF, 0x8123], bits=16)
        roots = {overlay.ids[overlay.root] for overlay in family.values()}
        assert len(roots) >= 2  # load spread across members

    def test_membership_validation(self):
        with pytest.raises(ValueError):
            random_membership(0)
        with pytest.raises(ValueError):
            random_membership(10, bits=2)


class TestAggregationOverOverlay:
    def test_rww_on_overlay_tree(self):
        """The whole stack runs unchanged over a DHT-derived topology."""
        ids = random_membership(24, bits=16, seed=11)
        overlay = plaxton_tree(ids, key=0xBEEF, bits=16)
        wl = uniform_workload(overlay.tree.n, 120, read_ratio=0.5, seed=2)
        system = AggregationSystem(overlay.tree)
        result = system.run(copy_sequence(wl))
        system.check_quiescent_invariants()
        assert check_strict_consistency(result.requests, overlay.tree.n) == []
