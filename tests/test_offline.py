"""Tests for the offline comparators: projection, edge DP, nice bound."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregationSystem, path_tree, random_tree, two_node_tree
from repro.offline import (
    NOOP,
    READ,
    WRITE_TOKEN,
    brute_force_edge_cost,
    edge_dp_cost,
    edge_epochs,
    nice_lower_bound,
    offline_lease_lower_bound,
    project_all_edges,
    project_sequence,
    rww_edge_cost,
)
from repro.offline.projection import strip_noops
from repro.workloads import adv_sequence, combine, uniform_workload, write
from repro.workloads.requests import copy_sequence

TOKENS = st.lists(st.sampled_from([READ, WRITE_TOKEN, NOOP]), max_size=12)


class TestProjection:
    def test_pair_tree_tokens(self):
        tree = two_node_tree()
        seq = [combine(0), write(1, 1.0), write(0, 2.0), combine(1)]
        # Ordered edge (1, 0): writes at 1 are W; combines at 0 are R;
        # writes at 0 are N; combines at 1 are dropped.
        assert project_sequence(tree, seq, 1, 0) == [READ, WRITE_TOKEN, NOOP]
        assert project_sequence(tree, seq, 0, 1) == [NOOP, WRITE_TOKEN, READ]

    def test_combines_on_own_side_dropped(self):
        tree = path_tree(3)
        seq = [combine(0), combine(2)]
        assert project_sequence(tree, seq, 0, 1) == [READ]  # only combine at 2 counts
        assert project_sequence(tree, seq, 2, 1) == [READ]

    def test_interior_edge_split(self):
        tree = path_tree(4)  # 0-1-2-3
        seq = [write(0, 1.0), write(3, 2.0), combine(1), combine(2)]
        toks = project_sequence(tree, seq, 1, 2)
        # Edge (1,2): write at 0 is on 1's side (W); write at 3 is N;
        # combine at 1 is own-side (dropped); combine at 2 is R.
        assert toks == [WRITE_TOKEN, NOOP, READ]

    def test_project_all_edges_matches_single(self):
        tree = random_tree(6, 5)
        wl = uniform_workload(tree.n, 30, seed=2)
        all_proj = project_all_edges(tree, wl)
        for u, v in tree.directed_edges():
            assert all_proj[(u, v)] == project_sequence(tree, wl, u, v)

    def test_rejects_gather(self):
        from repro.workloads.requests import Request

        tree = two_node_tree()
        bad = Request(node=0, op="gather")
        with pytest.raises(ValueError):
            project_sequence(tree, [bad], 0, 1)

    def test_strip_noops(self):
        assert strip_noops([READ, NOOP, WRITE_TOKEN, NOOP]) == [READ, WRITE_TOKEN]


class TestEdgeDP:
    def test_empty_stream_costs_zero(self):
        assert edge_dp_cost([]).cost == 0

    def test_single_read_costs_two(self):
        assert edge_dp_cost([READ]).cost == 2

    def test_reads_only_pay_once_with_lease(self):
        res = edge_dp_cost([READ] * 10)
        assert res.cost == 2
        assert all(s == 1 for s in res.schedule)

    def test_writes_only_cost_zero(self):
        assert edge_dp_cost([WRITE_TOKEN] * 10).cost == 0

    def test_alternating_rw(self):
        # R W R W: lease-keeping pays 2+1+0+1=4; pull-always pays 2+0+2+0=4.
        assert edge_dp_cost([READ, WRITE_TOKEN, READ, WRITE_TOKEN]).cost == 4

    def test_noop_break_is_cheaper_than_write_break(self):
        # Two reads force taking the lease to be worthwhile (2 vs 4); the
        # cheapest way out of it is a noop break (1) when available,
        # otherwise a write break (2).
        with_noop = edge_dp_cost([READ, READ, NOOP] + [WRITE_TOKEN] * 5).cost
        without = edge_dp_cost([READ, READ] + [WRITE_TOKEN] * 5).cost
        assert with_noop == 3  # 2 (lease on first read) + 1 (noop break)
        assert without == 4  # 2 (lease) + 2 (write break) == never-lease cost

    def test_schedule_is_consistent_with_cost(self):
        tokens = [READ, WRITE_TOKEN, NOOP, READ, WRITE_TOKEN, WRITE_TOKEN]
        res = edge_dp_cost(tokens)
        # Recompute the cost along the returned schedule.
        from repro.offline.edge_dp import TRANSITIONS

        state, total = 0, 0
        for tok, nxt in zip(tokens, res.schedule):
            options = dict((s2, c) for s2, c in TRANSITIONS[(state, tok)])
            assert nxt in options
            total += options[nxt]
            state = nxt
        assert total == res.cost

    @given(TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_dp_matches_brute_force(self, tokens):
        assert edge_dp_cost(tokens).cost == brute_force_edge_cost(tokens)

    def test_brute_force_guards_length(self):
        with pytest.raises(ValueError):
            brute_force_edge_cost([READ] * 30)

    @given(TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_dp_lower_bounds_rww(self, tokens):
        assert edge_dp_cost(tokens).cost <= rww_edge_cost(tokens)

    @given(TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_rww_within_5_2_of_dp_per_edge_plus_constant(self, tokens):
        # Per-edge, amortized: C_RWW <= 5/2 C_OPT + Φmax (potential bound).
        assert rww_edge_cost(tokens) <= 2.5 * edge_dp_cost(tokens).cost + 3.0

    def test_rww_edge_cost_rejects_bad_token(self):
        with pytest.raises(ValueError):
            rww_edge_cost(["X"])


class TestBounds:
    def test_offline_bound_nonnegative_and_below_rww(self):
        for seed in range(5):
            tree = random_tree(7, seed)
            wl = uniform_workload(tree.n, 50, read_ratio=0.5, seed=seed)
            opt = offline_lease_lower_bound(tree, wl)
            sim = AggregationSystem(tree).run(copy_sequence(wl)).total_messages
            assert 0 <= opt <= sim

    def test_nice_bound_below_lease_bound(self):
        # A nice algorithm need not be lease-based, so its bound is weaker.
        for seed in range(5):
            tree = random_tree(7, seed + 20)
            wl = uniform_workload(tree.n, 50, read_ratio=0.5, seed=seed)
            assert nice_lower_bound(tree, wl) <= offline_lease_lower_bound(tree, wl)

    def test_epoch_counting(self):
        assert edge_epochs([]) == 0
        assert edge_epochs([READ, READ]) == 0
        assert edge_epochs([WRITE_TOKEN, READ]) == 1
        assert edge_epochs([READ, WRITE_TOKEN, WRITE_TOKEN, READ, WRITE_TOKEN, READ]) == 2

    def test_epochs_ignore_noops(self):
        assert edge_epochs([WRITE_TOKEN, NOOP, READ]) == 1
        assert edge_epochs([WRITE_TOKEN, NOOP, NOOP, WRITE_TOKEN]) == 0

    def test_adversary_bounds_on_pair(self):
        tree = two_node_tree()
        wl = adv_sequence(1, 2, rounds=100)
        opt = offline_lease_lower_bound(tree, wl)
        nice = nice_lower_bound(tree, wl)
        # Per round OPT pays 2 on the (1,0) edge (keep lease: 1+1 updates);
        # the nice bound sees one epoch per round in each direction where
        # writes precede reads.
        assert opt == pytest.approx(2 * 100, abs=4)
        assert nice >= 99

    def test_write_only_workload_bounds_are_zero(self):
        tree = path_tree(4)
        wl = [write(i % 4, float(i)) for i in range(20)]
        assert offline_lease_lower_bound(tree, wl) == 0
        assert nice_lower_bound(tree, wl) == 0
