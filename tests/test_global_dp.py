"""Tests for the closure-constrained global offline OPT."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregationSystem, path_tree, star_tree, two_node_tree
from repro.offline.edge_dp import offline_lease_lower_bound
from repro.offline.global_dp import (
    global_offline_cost,
    is_closed,
    legal_configs,
    relaxation_gap,
)
from repro.workloads import combine, uniform_workload, write
from repro.workloads.requests import Request, copy_sequence


class TestClosure:
    def test_empty_and_full_are_legal(self):
        tree = path_tree(4)
        assert is_closed(tree, frozenset())
        assert is_closed(tree, frozenset(tree.directed_edges()))

    def test_unsupported_grant_is_illegal(self):
        tree = path_tree(3)
        assert not is_closed(tree, frozenset({(1, 0)}))  # needs (2, 1)
        assert is_closed(tree, frozenset({(2, 1), (1, 0)}))

    def test_leaf_grants_always_legal(self):
        tree = star_tree(4)
        for leaf in (1, 2, 3):
            assert is_closed(tree, frozenset({(leaf, 0)}))

    def test_config_counts(self):
        # On the pair tree all 4 subsets are closed.
        assert len(legal_configs(two_node_tree())) == 4
        # Path3: 9 of 16 subsets survive the closure.
        assert len(legal_configs(path_tree(3))) == 9

    def test_size_guard(self):
        with pytest.raises(ValueError, match="exponential"):
            legal_configs(path_tree(10))


class TestGlobalDP:
    def test_empty_sequence(self):
        assert global_offline_cost(path_tree(3), []) == 0

    def test_matches_edge_dp_on_pair(self):
        # With a single edge the closure is vacuous: the DPs must agree.
        tree = two_node_tree()
        for seed in range(5):
            wl = uniform_workload(2, 30, read_ratio=0.5, seed=seed)
            assert global_offline_cost(tree, wl) == offline_lease_lower_bound(tree, wl)

    def test_bounded_by_relaxation_and_rww(self):
        tree = path_tree(4)
        wl = uniform_workload(tree.n, 25, read_ratio=0.5, seed=3)
        relaxed = offline_lease_lower_bound(tree, wl)
        exact = global_offline_cost(tree, wl)
        rww = AggregationSystem(tree).run(copy_sequence(wl)).total_messages
        assert relaxed <= exact <= rww

    def test_single_combine_costs_full_pull(self):
        tree = path_tree(3)
        assert global_offline_cost(tree, [combine(0)]) == 4

    def test_write_only_is_free(self):
        tree = star_tree(4)
        wl = [write(i % 4, float(i)) for i in range(10)]
        assert global_offline_cost(tree, wl) == 0

    def test_rejects_gather(self):
        with pytest.raises(ValueError):
            global_offline_cost(path_tree(3), [Request(node=0, op="gather")])

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["pair", "path3", "path4", "star4"]),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_relaxation_empirically_tight(self, seed, topo, read_ratio):
        """Measured finding (EXT-GAP): the per-edge relaxation equals the
        closure-constrained optimum on every sampled instance — upstream
        edges are always at least as profitable to lease as the downstream
        edges that require them, so the closure never binds."""
        tree = {
            "pair": two_node_tree(),
            "path3": path_tree(3),
            "path4": path_tree(4),
            "star4": star_tree(4),
        }[topo]
        wl = uniform_workload(tree.n, 20, read_ratio=read_ratio, seed=seed)
        relaxed, exact, gap = relaxation_gap(tree, wl)
        assert relaxed == exact, f"gap found: {relaxed} vs {exact} ({topo}, seed {seed})"
        assert gap == 1.0
