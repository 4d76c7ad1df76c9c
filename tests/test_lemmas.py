"""Conformance tests for the paper's sequential-execution lemmas.

Each test class maps to one lemma/figure of Section 3–4 and checks it
against actual executions of the mechanism (mostly under RWW, and — where a
lemma claims "any lease-based algorithm" — under other policies too).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AggregationSystem,
    AlwaysLeasePolicy,
    NeverLeasePolicy,
    RWWPolicy,
    WriteOncePolicy,
    path_tree,
    random_tree,
    star_tree,
    two_node_tree,
)
from repro.offline.edge_dp import rww_analytic_cost, rww_edge_cost
from repro.offline.projection import project_all_edges, project_sequence
from repro.tree import binary_tree
from repro.workloads import combine, uniform_workload, write
from repro.workloads.requests import COMBINE, WRITE, copy_sequence

POLICIES = [RWWPolicy, AlwaysLeasePolicy, NeverLeasePolicy, WriteOncePolicy]
POLICY_IDS = ["rww", "always", "never", "writeonce"]

TREES = {
    "pair": two_node_tree(),
    "path6": path_tree(6),
    "star6": star_tree(6),
    "binary2": binary_tree(2),
    "rand9": random_tree(9, 17),
}


def run_system(tree, workload, policy_factory=RWWPolicy, check_each=False):
    system = AggregationSystem(tree, policy_factory=policy_factory)
    for q in copy_sequence(workload):
        system.execute(q)
        if check_each:
            system.check_quiescent_invariants()
    return system


class TestLemma31And32And34:
    """taken/granted symmetry, grant preconditions, empty pndg/snt — in
    every quiescent state, for every lease-based policy."""

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    @pytest.mark.parametrize("tree_name", sorted(TREES))
    def test_invariants_hold_after_every_request(self, policy, tree_name):
        tree = TREES[tree_name]
        wl = uniform_workload(tree.n, 40, read_ratio=0.5, seed=5)
        run_system(tree, wl, policy_factory=policy, check_each=True)

    def test_invariant_checker_detects_violation(self):
        tree = two_node_tree()
        system = AggregationSystem(tree)
        system.nodes[0].taken[1] = True  # fabricate asymmetry
        with pytest.raises(AssertionError, match="Lemma 3.1"):
            system.check_quiescent_invariants()

    def test_invariant_checker_detects_grant_without_taken(self):
        tree = path_tree(3)
        system = AggregationSystem(tree)
        system.nodes[1].granted[0] = True
        system.nodes[0].taken[1] = True  # keep 3.1 satisfied on (1,0)
        with pytest.raises(AssertionError, match="Lemma 3.2"):
            system.check_quiescent_invariants()


class TestLemma33ProbeCounts:
    """A combine initiated at u sends exactly |A| probes and |A| responses,
    where A = nodes whose grant toward u is missing; no updates/releases."""

    @pytest.mark.parametrize("tree_name", sorted(TREES))
    def test_first_combine_contacts_everyone(self, tree_name):
        tree = TREES[tree_name]
        system = AggregationSystem(tree)
        system.execute(combine(0))
        kinds = system.stats.by_kind()
        assert kinds.get("probe", 0) == tree.n - 1
        assert kinds.get("response", 0) == tree.n - 1
        assert "update" not in kinds and "release" not in kinds

    def test_combine_probe_count_equals_A(self):
        tree = binary_tree(3)
        rng = random.Random(3)
        system = AggregationSystem(tree)
        wl = uniform_workload(tree.n, 30, read_ratio=0.4, seed=9)
        for q in copy_sequence(wl):
            if q.op == COMBINE:
                u = q.node
                parents = tree.bfs_parents(u)
                a_set = [
                    v
                    for v in tree.nodes()
                    if v != u and not system.nodes[v].granted[parents[v]]
                ]
                before = system.stats.by_kind()
                system.execute(q)
                after = system.stats.by_kind()
                assert after.get("probe", 0) - before.get("probe", 0) == len(a_set)
                assert after.get("response", 0) - before.get("response", 0) == len(a_set)
                assert after.get("update", 0) == before.get("update", 0)
                assert after.get("release", 0) == before.get("release", 0)
            else:
                system.execute(q)

    def test_probe_recipients_are_exactly_A(self):
        tree = path_tree(4)
        system = AggregationSystem(tree, trace_enabled=True)
        system.execute(combine(0))
        mark = system.trace.mark()
        system.execute(write(3, 1.0))
        system.execute(write(3, 2.0))  # breaks leases along the path
        system.trace.since(mark)
        mark = system.trace.mark()
        system.execute(combine(0))
        sends = [
            e for e in system.trace.since(mark) if e.kind == "send" and e.detail["msg"] == "probe"
        ]
        # After the release cascade every grant toward 0 is gone again.
        assert len(sends) == 3


class TestLemma35UpdateCounts:
    """A write at u sends exactly |A| updates, A = nodes reachable from u in
    the lease graph; and no probes/responses."""

    def test_write_update_count_equals_reachable_set(self):
        tree = binary_tree(3)
        system = AggregationSystem(tree)
        wl = uniform_workload(tree.n, 40, read_ratio=0.6, seed=2)
        for q in copy_sequence(wl):
            if q.op == WRITE:
                reachable = self._lease_reachable(system, tree, q.node)
                before = system.stats.by_kind()
                system.execute(q)
                after = system.stats.by_kind()
                assert after.get("update", 0) - before.get("update", 0) == len(reachable)
                assert after.get("probe", 0) == before.get("probe", 0)
                assert after.get("response", 0) == before.get("response", 0)
            else:
                system.execute(q)

    @staticmethod
    def _lease_reachable(system, tree, u):
        seen = set()
        stack = [u]
        while stack:
            x = stack.pop()
            for v in tree.neighbors(x):
                if v not in seen and v != u and system.nodes[x].granted[v]:
                    # Follow granted edges away from u only.
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return seen


class TestFigure2CostTable:
    """Per-edge message costs match Figure 2 exactly, request by request."""

    def test_two_node_tree_cost_rows(self):
        tree = two_node_tree()
        system = AggregationSystem(tree)

        def cost_of(q):
            before = system.stats.total
            system.execute(q)
            return system.stats.total - before

        # Row: false, R -> true, cost 2.
        assert cost_of(combine(0)) == 2
        # Row: true, R -> true, cost 0.
        assert cost_of(combine(0)) == 0
        # Row: true, W -> true, cost 1 (first write under RWW).
        assert cost_of(write(1, 1.0)) == 1
        # Row: true, W -> false, cost 2 (second write: update + release).
        assert cost_of(write(1, 2.0)) == 2
        # Row: false, W -> false, cost 0.
        assert cost_of(write(1, 3.0)) == 0

    def test_directional_cost_matches_rww_token_replay(self):
        for seed in range(6):
            tree = random_tree(7, seed)
            wl = uniform_workload(tree.n, 50, read_ratio=0.5, seed=seed + 100)
            system = AggregationSystem(tree)
            system.run(copy_sequence(wl))
            for u, v in tree.directed_edges():
                tokens = project_sequence(tree, wl, u, v)
                assert system.stats.directional_cost(u, v) == rww_edge_cost(tokens), (
                    f"edge ({u},{v}) seed {seed}"
                )


class TestLemma39Decomposition:
    """Total cost = Σ over unordered edges of both directional costs."""

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_total_is_sum_of_directional_costs(self, policy):
        tree = random_tree(8, 11)
        wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=8)
        system = run_system(tree, wl, policy_factory=policy)
        total = sum(
            system.stats.directional_cost(u, v) for u, v in tree.directed_edges()
        )
        assert total == system.stats.total


class TestLemma42InvariantI4:
    """RWW's lt/uaw invariant: taken[v] off => uaw[v] empty; when no other
    grant is held, lt[v] + |uaw[v]| = 2 and lt[v] > 0; else lt[v] = 2."""

    @staticmethod
    def check_i4(system):
        for u, node in system.nodes.items():
            lt = node.policy.lt
            for v in node.nbrs:
                if not node.taken[v]:
                    assert node.uaw[v] == set(), f"I4 at {u}: uaw[{v}] nonempty w/o lease"
                elif node.isgoodforrelease(v):
                    assert lt[v] + len(node.uaw[v]) == 2, f"I4 at {u} toward {v}"
                    assert lt[v] > 0, f"I4 at {u}: lt[{v}] <= 0 while leased"
                else:
                    assert lt[v] == 2, f"I4 at {u}: relaying but lt[{v}] != 2"

    @pytest.mark.parametrize("tree_name", sorted(TREES))
    def test_i4_after_every_request(self, tree_name):
        tree = TREES[tree_name]
        wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=21)
        system = AggregationSystem(tree)
        for q in copy_sequence(wl):
            system.execute(q)
            self.check_i4(system)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_i4_random_workloads(self, seed):
        tree = random_tree(6, seed % 50)
        wl = uniform_workload(tree.n, 40, read_ratio=0.5, seed=seed)
        system = AggregationSystem(tree)
        for q in copy_sequence(wl):
            system.execute(q)
            self.check_i4(system)


class TestLemma43LeaseLifecycle:
    """(1) After a combine in σ(u,v) the lease u->v holds.  (2) After two
    consecutive writes in σ(u,v) it does not."""

    def test_lease_set_after_combine(self):
        tree = path_tree(4)
        system = AggregationSystem(tree)
        system.execute(combine(3))
        parents = tree.bfs_parents(3)
        for v in tree.nodes():
            if v != 3:
                assert system.nodes[v].granted[parents[v]], f"lease {v}->{parents[v]} missing"

    def test_lease_survives_one_write(self):
        tree = two_node_tree()
        system = AggregationSystem(tree)
        system.execute(combine(0))
        system.execute(write(1, 1.0))
        assert system.nodes[1].granted[0]

    def test_lease_broken_after_two_writes(self):
        tree = two_node_tree()
        system = AggregationSystem(tree)
        system.execute(combine(0))
        system.execute(write(1, 1.0))
        system.execute(write(1, 2.0))
        assert not system.nodes[1].granted[0]

    def test_break_requires_consecutive_writes(self):
        tree = two_node_tree()
        system = AggregationSystem(tree)
        system.execute(combine(0))
        system.execute(write(1, 1.0))
        system.execute(combine(0))  # refreshes the lease timer
        system.execute(write(1, 2.0))
        assert system.nodes[1].granted[0]  # only one write since the combine

    def test_deep_write_breaks_whole_path(self):
        tree = path_tree(4)
        system = AggregationSystem(tree)
        system.execute(combine(0))
        system.execute(write(3, 1.0))
        system.execute(write(3, 2.0))
        parents = tree.bfs_parents(0)
        for v in (1, 2, 3):
            assert not system.nodes[v].granted[parents[v]]

    def test_writes_at_different_nodes_same_subtree_break_lease(self):
        # "Two consecutive write requests at any nodes in subtree(u, v)".
        tree = path_tree(4)
        system = AggregationSystem(tree)
        system.execute(combine(0))
        system.execute(write(2, 1.0))
        system.execute(write(3, 2.0))
        assert not system.nodes[1].granted[0]


class TestLemma44ConfigMatchesGrant:
    """F_RWW(u, v) > 0 iff u.granted[v], in every quiescent state."""

    @pytest.mark.parametrize("seed", range(5))
    def test_config_tracks_grant(self, seed):
        tree = random_tree(6, seed)
        wl = uniform_workload(tree.n, 50, read_ratio=0.5, seed=seed + 7)
        system = AggregationSystem(tree)
        executed = []
        for q in copy_sequence(wl):
            system.execute(q)
            executed.append(q)
            projections = project_all_edges(tree, executed)
            for (u, v), tokens in projections.items():
                config = 0
                for tok in tokens:
                    if tok == "R":
                        config = 2
                    elif tok == "W":
                        config = max(config - 1, 0)
                assert (config > 0) == system.nodes[u].granted[v], (
                    f"seed {seed}, edge ({u},{v})"
                )


class TestLemma45PerEdgeLocality:
    """C_RWW(σ, u, v) depends only on σ(u, v): the simulated total equals
    the analytic per-edge replay on every workload."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=30, deadline=None)
    def test_simulated_equals_analytic(self, seed, n, read_ratio):
        tree = random_tree(n, seed % 97)
        wl = uniform_workload(tree.n, 40, read_ratio=read_ratio, seed=seed)
        system = AggregationSystem(tree)
        result = system.run(copy_sequence(wl))
        assert result.total_messages == rww_analytic_cost(tree, wl)
