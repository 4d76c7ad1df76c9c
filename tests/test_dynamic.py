"""Tests for dynamic trees (leaf join/leave with lease revocation)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import path_tree, star_tree, two_node_tree
from repro.core.dynamic import DynamicAggregationSystem
from repro.workloads import combine, write


def expected_sum(values):
    return sum(values.values())


class TestAddLeaf:
    def test_grows_tree(self):
        system = DynamicAggregationSystem(path_tree(3))
        new = system.add_leaf(parent=1)
        assert new == 3
        assert system.tree.n == 4
        assert system.tree.has_edge(1, 3)
        system.check_quiescent_invariants()

    def test_new_node_participates(self):
        system = DynamicAggregationSystem(path_tree(2))
        system.execute(write(0, 1.0))
        new = system.add_leaf(parent=1)
        system.execute(write(new, 10.0))
        assert system.execute(combine(0)).retval == 11.0

    def test_add_revokes_stale_leases(self):
        """Without revocation, the new leaf's writes would be invisible to
        holders of pre-existing leases."""
        system = DynamicAggregationSystem(path_tree(3))
        system.execute(combine(0))  # lease chain toward 0
        before = system.stats.by_kind().get("revoke", 0)
        new = system.add_leaf(parent=2)
        assert system.stats.by_kind().get("revoke", 0) > before
        system.execute(write(new, 7.0))
        assert system.execute(combine(0)).retval == 7.0  # freshness restored
        system.check_quiescent_invariants()

    def test_add_without_leases_is_free(self):
        system = DynamicAggregationSystem(path_tree(3))
        before = system.stats.total
        system.add_leaf(parent=1)
        assert system.stats.total == before  # nothing to revoke

    def test_reverse_leases_survive_add(self):
        """Leases toward the change site cover only their own side and are
        untouched by the join."""
        system = DynamicAggregationSystem(path_tree(3))
        system.execute(combine(2))  # 0 and 1 grant toward 2
        assert system.nodes[0].granted[1]
        system.add_leaf(parent=2)
        assert system.nodes[0].granted[1]  # far-side lease untouched
        system.check_quiescent_invariants()

    def test_rejects_bad_parent(self):
        system = DynamicAggregationSystem(path_tree(2))
        with pytest.raises(ValueError):
            system.add_leaf(parent=9)


class TestRemoveLeaf:
    def test_shrinks_tree(self):
        system = DynamicAggregationSystem(path_tree(3))
        remap = system.remove_leaf(2)
        assert remap == {}
        assert system.tree.n == 2
        system.check_quiescent_invariants()

    def test_removed_value_leaves_aggregate(self):
        system = DynamicAggregationSystem(star_tree(4))
        for i in range(4):
            system.execute(write(i, float(i + 1)))  # 1+2+3+4 = 10
        assert system.execute(combine(0)).retval == 10.0
        system.remove_leaf(3)  # value 4 departs
        assert system.execute(combine(0)).retval == 6.0
        system.check_quiescent_invariants()

    def test_remove_with_remap(self):
        system = DynamicAggregationSystem(path_tree(4))
        system.execute(write(3, 9.0))
        remap = system.remove_leaf(0)  # hole at 0; node 3 renamed to 0
        assert remap == {3: 0}
        assert system.tree.n == 3
        # The renamed node kept its value.
        assert system.execute(combine(1)).retval == 9.0
        system.check_quiescent_invariants()

    def test_add_after_remove_reuses_the_freed_highest_id(self):
        """Ids stay dense: the highest id moves into the hole, and the next
        add_leaf takes the id that move freed."""
        system = DynamicAggregationSystem(path_tree(3))
        system.execute(write(2, 4.0))
        assert system.remove_leaf(0) == {2: 0}
        assert system.add_leaf(1) == 2
        assert system.live_nodes == {0, 1, 2}
        # The new node 2 is fresh; the old node 2's value lives on at 0.
        assert system.execute(combine(2)).retval == 4.0
        system.execute(write(2, 1.0))
        assert system.execute(combine(0)).retval == 5.0
        system.check_quiescent_invariants()

    def test_remove_revokes_leases_over_departed_value(self):
        system = DynamicAggregationSystem(path_tree(3))
        system.execute(write(2, 5.0))
        system.execute(combine(0))
        assert system.execute(combine(0)).retval == 5.0
        system.remove_leaf(2)
        assert system.execute(combine(0)).retval == 0.0  # 5.0 is gone
        system.check_quiescent_invariants()

    def test_rejects_non_leaf(self):
        system = DynamicAggregationSystem(path_tree(3))
        with pytest.raises(ValueError, match="not a leaf"):
            system.remove_leaf(1)

    def test_rejects_last_node(self):
        system = DynamicAggregationSystem(two_node_tree())
        system.remove_leaf(1)
        with pytest.raises(ValueError, match="last node"):
            system.remove_leaf(0)

    def test_rejects_retired_node_requests(self):
        system = DynamicAggregationSystem(path_tree(3))
        system.remove_leaf(2)
        with pytest.raises(ValueError, match="retired"):
            system.execute(write(2, 1.0))


class TestChurn:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_churn_preserves_strict_consistency(self, seed):
        """Random interleaving of writes, combines, joins and leaves: every
        combine must aggregate exactly the live members' latest values, and
        the invariants must hold throughout."""
        rng = random.Random(seed)
        system = DynamicAggregationSystem(path_tree(3))
        reference = {}  # live node -> latest value
        for _ in range(40):
            action = rng.random()
            n = system.tree.n
            if action < 0.15 and n < 10:
                parent = rng.randrange(n)
                system.add_leaf(parent)
            elif action < 0.3 and n > 2:
                leaves = [u for u in system.tree.nodes() if system.tree.is_leaf(u)]
                victim = rng.choice(leaves)
                remap = system.remove_leaf(victim)
                reference.pop(victim, None)
                for old, new in remap.items():
                    if old in reference:
                        reference[new] = reference.pop(old)
            elif action < 0.65:
                node = rng.randrange(system.tree.n)
                value = float(rng.randrange(100))
                system.execute(write(node, value))
                reference[node] = value
            else:
                node = rng.randrange(system.tree.n)
                result = system.execute(combine(node))
                assert result.retval == pytest.approx(expected_sum(reference)), (
                    f"seed {seed}: expected {reference}"
                )
            system.check_quiescent_invariants()

    def test_revocation_cost_proportional_to_lease_graph(self):
        """Revocation touches only the lease graph below the change site,
        not the whole tree."""
        system = DynamicAggregationSystem(star_tree(10))
        # Only nodes 1..3 hold leases (a combine at 1 pulls via the hub).
        system.execute(combine(1))
        before = system.stats.total
        system.add_leaf(parent=0)
        cost = system.stats.total - before
        # The hub granted exactly one lease (to 1): one revoke message.
        assert cost == 1
