"""Integration tests for the paper's theorem-level claims.

These run whole sweeps — the empirical counterparts of Theorems 1–4 — and
assert the paper's bounds and shapes on real executions.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    ABPolicy,
    AggregationSystem,
    ConcurrentAggregationSystem,
    ScheduledRequest,
    path_tree,
    random_tree,
    star_tree,
    two_node_tree,
)
from repro.consistency import check_causal_consistency, check_strict_consistency
from repro.offline import nice_lower_bound, offline_lease_lower_bound
from repro.sim.channel import uniform_latency
from repro.tree import binary_tree
from repro.workloads import adv_sequence, alternating_phases, uniform_workload, zipf_workload
from repro.workloads.requests import copy_sequence


def rww_cost(tree, wl):
    return AggregationSystem(tree).run(copy_sequence(wl)).total_messages


class TestTheorem1:
    """RWW is 5/2-competitive against the optimal lease-based algorithm."""

    @pytest.mark.parametrize("tree_name,tree", [
        ("pair", two_node_tree()),
        ("path8", path_tree(8)),
        ("star8", star_tree(8)),
        ("binary3", binary_tree(3)),
        ("rand12", random_tree(12, 5)),
    ])
    @pytest.mark.parametrize("read_ratio", [0.2, 0.5, 0.8])
    def test_ratio_bounded_uniform(self, tree_name, tree, read_ratio):
        for seed in range(3):
            wl = uniform_workload(tree.n, 150, read_ratio=read_ratio, seed=seed)
            cost = rww_cost(tree, wl)
            opt = offline_lease_lower_bound(tree, wl)
            assert cost <= 2.5 * opt + 1e-9, f"{tree_name} seed {seed}"

    def test_ratio_bounded_zipf(self):
        tree = random_tree(10, 3)
        wl = zipf_workload(tree.n, 200, exponent=1.2, seed=4)
        assert rww_cost(tree, wl) <= 2.5 * offline_lease_lower_bound(tree, wl)

    def test_ratio_bounded_phases(self):
        tree = binary_tree(3)
        wl = alternating_phases(tree.n, n_phases=4, phase_length=60, seed=6)
        assert rww_cost(tree, wl) <= 2.5 * offline_lease_lower_bound(tree, wl)

    def test_adversary_achieves_5_2_exactly(self):
        """The matching lower bound: ADV(1,2) drives RWW to exactly 5/2."""
        tree = two_node_tree()
        wl = adv_sequence(1, 2, rounds=400)
        cost = rww_cost(tree, wl)
        opt = offline_lease_lower_bound(tree, wl)
        assert cost / opt == pytest.approx(2.5, rel=0.01)


class TestTheorem2:
    """RWW is 5-competitive against any nice (strictly consistent) algorithm
    — asymptotically; the per-edge final partial epoch adds O(1) slack."""

    @pytest.mark.parametrize("seed", range(4))
    def test_additive_bound_all_workloads(self, seed):
        tree = random_tree(9, seed + 30)
        wl = uniform_workload(tree.n, 150, read_ratio=0.5, seed=seed)
        cost = rww_cost(tree, wl)
        nice = nice_lower_bound(tree, wl)
        assert cost <= 5 * nice + 5 * 2 * (tree.n - 1)

    def test_asymptotic_ratio_below_5_on_long_runs(self):
        tree = two_node_tree()
        wl = uniform_workload(tree.n, 3000, read_ratio=0.5, seed=8)
        cost = rww_cost(tree, wl)
        nice = nice_lower_bound(tree, wl)
        assert nice > 0
        assert cost / nice <= 5.0 + 0.1


class TestTheorem3:
    """Every (a, b)-algorithm is at least 5/2-competitive.  The
    strengthened adversary (reader-side noop writes) forces the ratio
    (2a + b + 1) / min(2a, b, 3) >= 5/2 for every (a, b)."""

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_adversarial_ratio_at_least_5_2(self, a, b):
        from repro.workloads import adv_sequence_strong

        tree = two_node_tree()
        rounds = 300
        wl = adv_sequence_strong(a, b, rounds=rounds)
        system = AggregationSystem(tree, policy_factory=lambda: ABPolicy(a, b))
        cost = system.run(copy_sequence(wl)).total_messages
        opt = offline_lease_lower_bound(tree, wl)
        ratio = cost / opt
        assert ratio >= 2.5 - 0.05, f"(a={a}, b={b})"
        predicted = (2 * a + b + 1) / min(2 * a, b, 3)
        assert ratio == pytest.approx(predicted, rel=0.05)

    def test_plain_adversary_insufficient_at_2_4(self):
        """Reproduction note: the paper's proof-sketch pattern (a combines
        then b writes, no noops) forces only 9/4 < 5/2 against the
        (2, 4)-algorithm — the noop strengthening is necessary."""
        tree = two_node_tree()
        wl = adv_sequence(2, 4, rounds=300)
        system = AggregationSystem(tree, policy_factory=lambda: ABPolicy(2, 4))
        cost = system.run(copy_sequence(wl)).total_messages
        opt = offline_lease_lower_bound(tree, wl)
        assert cost / opt == pytest.approx(2.25, rel=0.02)

    def test_rww_is_the_minimizer(self):
        """Within the (a, b) grid, (1, 2) = RWW attains the smallest
        adversarial ratio — the paper's motivation for RWW's design."""
        from repro.workloads import adv_sequence_strong

        tree = two_node_tree()
        ratios = {}
        for a in (1, 2, 3):
            for b in (1, 2, 3, 4):
                wl = adv_sequence_strong(a, b, rounds=200)
                system = AggregationSystem(tree, policy_factory=lambda a=a, b=b: ABPolicy(a, b))
                cost = system.run(copy_sequence(wl)).total_messages
                ratios[(a, b)] = cost / offline_lease_lower_bound(tree, wl)
        assert min(ratios, key=ratios.get) == (1, 2)
        assert ratios[(1, 2)] == pytest.approx(2.5, rel=0.02)


class TestTheorem4:
    """Any lease-based algorithm is causally consistent under concurrency."""

    @pytest.mark.parametrize("seed", range(3))
    def test_concurrent_rww_causal(self, seed):
        tree = random_tree(8, seed + 60)
        wl = uniform_workload(tree.n, 100, read_ratio=0.5, seed=seed)
        rng = random.Random(seed)
        t = 0.0
        sched = []
        for q in copy_sequence(wl):
            t += rng.expovariate(1.5)
            sched.append(ScheduledRequest(time=t, request=q))
        system = ConcurrentAggregationSystem(
            tree, latency=uniform_latency(0.2, 4.0), seed=seed, ghost=True
        )
        result = system.run(sched)
        assert check_causal_consistency(result.ghost_logs(), result.requests, tree.n) == []


class TestStrictSequentialEverywhere:
    """Lemma 3.12 at theorem strength: strict consistency on every sweep."""

    @pytest.mark.parametrize("seed", range(4))
    def test_big_sweep(self, seed):
        tree = random_tree(10, seed + 90)
        wl = uniform_workload(tree.n, 200, read_ratio=0.5, seed=seed)
        result = AggregationSystem(tree).run(copy_sequence(wl))
        assert check_strict_consistency(result.requests, tree.n) == []
