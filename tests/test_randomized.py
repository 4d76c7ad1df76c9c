"""Tests for the randomized lease policies."""

from __future__ import annotations

import pytest

from repro import AggregationSystem, path_tree, random_tree, two_node_tree
from repro.consistency import check_strict_consistency
from repro.core.randomized import RandomBreakPolicy, random_break_factory
from repro.offline import offline_lease_lower_bound
from repro.recovery import Checkpoint
from repro.workloads import adv_sequence_strong, combine, uniform_workload, write
from repro.workloads.requests import copy_sequence


class TestValidation:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            RandomBreakPolicy(p=0.0)
        with pytest.raises(ValueError):
            RandomBreakPolicy(p=1.5)


class TestMechanismGuarantees:
    """Randomized or not, it is lease-based: Section 3 guarantees hold."""

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    def test_strict_consistency(self, p):
        tree = random_tree(7, 11)
        wl = uniform_workload(tree.n, 80, read_ratio=0.5, seed=6)
        system = AggregationSystem(tree, policy_factory=random_break_factory(p, base_seed=3))
        result = system.run(copy_sequence(wl))
        assert check_strict_consistency(result.requests, tree.n) == []

    def test_quiescent_invariants(self):
        tree = random_tree(6, 4)
        wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=2)
        system = AggregationSystem(tree, policy_factory=random_break_factory(0.5, base_seed=1))
        for q in copy_sequence(wl):
            system.execute(q)
            system.check_quiescent_invariants()


class TestBehaviour:
    def test_p_one_breaks_on_first_write(self):
        tree = two_node_tree()
        system = AggregationSystem(tree, policy_factory=lambda: RandomBreakPolicy(p=1.0, seed=0))
        system.execute(combine(0))
        system.execute(write(1, 1.0))
        assert not system.nodes[1].granted[0]

    def test_deterministic_given_seed(self):
        tree = random_tree(6, 8)
        wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=4)

        def run(seed):
            system = AggregationSystem(
                tree, policy_factory=random_break_factory(0.5, base_seed=seed)
            )
            return system.run(copy_sequence(wl)).total_messages

        assert run(7) == run(7)

    def test_expected_tolerated_writes(self):
        """With p = 0.5 the lease survives a geometric number of writes
        with mean 2 — matching RWW's threshold in expectation."""
        tree = two_node_tree()
        tolerated = []
        for seed in range(120):
            system = AggregationSystem(
                tree, policy_factory=lambda s=seed: RandomBreakPolicy(p=0.5, seed=s)
            )
            system.execute(combine(0))
            count = 0
            for i in range(40):
                system.execute(write(1, float(i)))
                count += 1
                if not system.nodes[1].granted[0]:
                    break
            tolerated.append(count)
        mean = sum(tolerated) / len(tolerated)
        assert 1.6 < mean < 2.4  # geometric(1/2) mean is 2

    def test_randomization_beats_oblivious_adversary(self):
        """The classic randomized-online effect: ADV(1, 2) forces RWW to
        exactly 5/2, but it is *oblivious* — it cannot see the coin.  The
        p = 1/2 coin flipper desynchronizes from the fixed pattern and
        achieves a strictly better expected ratio (~1.9) on the very
        sequence that is worst for RWW.  (Its own worst-case ratio over
        all oblivious sequences is a different, open quantity.)"""
        tree = two_node_tree()
        total_cost = total_opt = 0
        for seed in range(10):
            wl = adv_sequence_strong(1, 2, rounds=100)
            system = AggregationSystem(
                tree, policy_factory=random_break_factory(0.5, base_seed=seed)
            )
            total_cost += system.run(copy_sequence(wl)).total_messages
            total_opt += offline_lease_lower_bound(tree, wl)
        ratio = total_cost / total_opt
        assert 1.6 <= ratio <= 2.3
        assert ratio < 2.5  # strictly better than RWW's forced ratio here


class TestCanonicalState:
    """A node's coin is part of its state, rendered by the generator's
    state and never by its address."""

    @staticmethod
    def _system():
        system = AggregationSystem(
            path_tree(3), policy_factory=random_break_factory(0.5, base_seed=5)
        )
        for q in [combine(2), write(0, 1.0), write(0, 2.0), combine(1)]:
            system.execute(q)
        return system

    def test_fork_snapshot_equals_the_original(self):
        runtime = self._system().runtime
        clone = runtime.fork()
        for i in runtime.nodes:
            assert clone.nodes[i].state_snapshot() == runtime.nodes[i].state_snapshot()
        # One draw moves the clone's coin alone, and the snapshots part.
        clone.nodes[1].policy.rng.random()
        assert clone.nodes[1].state_snapshot() != runtime.nodes[1].state_snapshot()

    def test_checkpoint_digest_repeats_across_runs(self):
        digests = [
            Checkpoint.capture(self._system().nodes[1], seq=0, time=0.0).digest
            for _ in range(2)
        ]
        assert digests[0] == digests[1]
