"""Edge-case and differential tests for the mechanism beyond test_mechanism."""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AggregationSystem,
    AlwaysLeasePolicy,
    ConcurrentAggregationSystem,
    NeverLeasePolicy,
    RWWPolicy,
    ScheduledRequest,
    path_tree,
    random_tree,
    star_tree,
    two_node_tree,
)
from repro.core.messages import Release, Response, Update
from repro.core.mechanism import LeaseNode, relay_triples
from repro.core.policies import RWWPolicy as RWW
from repro.offline.global_dp import global_offline_cost
from repro.ops import k_smallest
from repro.sim.channel import constant_latency
from repro.workloads import combine, uniform_workload, write
from repro.workloads.requests import copy_sequence


def make_node(tree, node_id):
    outbox = []
    node = LeaseNode(node_id, tree, __import__("repro.ops", fromlist=["SUM"]).SUM,
                     RWW(), send=lambda dst, msg: outbox.append((dst, msg)))
    return node, outbox


class TestOnReleaseEdgeCases:
    def test_release_with_empty_S(self):
        """A release naming no updates resets the sibling windows to empty
        (DESIGN.md decision 3) without breaking their leases."""
        tree = star_tree(3)
        node, outbox = make_node(tree, 0)
        # Acquire leases from both leaves; grant to nobody yet.
        node.begin_combine(combine(0), lambda q: None)
        node.on_message(1, Response(x=0.0, flag=True))
        node.on_message(2, Response(x=0.0, flag=True))
        node.granted[1] = True  # hand-grant to 1 (as if 1 probed)
        node.uaw[2].add(1)  # pretend an update from 2 was relayed
        node.on_message(1, Release(S=frozenset()))
        assert node.uaw[2] == set()
        assert node.taken[2] is True
        assert node.policy.lt[2] == 2

    def test_release_from_unknown_window_node(self):
        """sntupdates with entries for a different neighbor leaves the
        sibling's uaw trimmed to empty (no matching window)."""
        tree = star_tree(4)
        node, _ = make_node(tree, 0)
        node.begin_combine(combine(0), lambda q: None)
        for leaf in (1, 2, 3):
            node.on_message(leaf, Response(x=0.0, flag=True))
        node.granted[3] = True
        node.sntupdates[1] = ([9], [5])  # relayed update from 1 only
        node.uaw[2].add(7)
        node.on_message(3, Release(S=frozenset({9, 10})))
        assert node.uaw[1] == set()  # in-window trim (id >= 5 kept: uaw empty anyway)
        assert node.uaw[2] == set()  # no window -> reset


def _figure1_onrelease(node, entries, w, S):
    """``onrelease(w, S)`` exactly as Figure 1 writes it: the window is a
    scan of the ``(node, rcvid, sntid)`` triples ``entries``."""
    for v in node.tkn():
        if v == w:
            continue
        window = [t for t in entries if t[0] == v and t[2] >= min(S)] if S else []
        if window:
            beta = min(t[1] for t in window)
            node.uaw[v] = {i for i in node.uaw[v] if i >= beta}
        else:
            node.uaw[v] = set()
        if node.isgoodforrelease(v):
            node.policy.release_policy(node, v)
    node._forwardrelease()


@st.composite
def _release_scenarios(draw):
    """A star center's state before a release: leases, ``uaw`` windows,
    lease timers, a relay history with ``sntid``s increasing (with gaps,
    as writes also draw ids) and ``rcvid``s in any order, and a release
    ``S``, possibly empty."""
    k = draw(st.integers(2, 5))
    leaves = list(range(1, k + 1))
    ids = st.integers(0, 30)
    sntids = accumulate(draw(st.lists(st.integers(1, 3), max_size=25)))
    entries = [(draw(st.sampled_from(leaves)), draw(ids), n) for n in sntids]
    return {
        "k": k,
        "taken": {v: draw(st.booleans()) for v in leaves},
        "granted": {v: draw(st.booleans()) for v in leaves},
        "uaw": {v: draw(st.sets(ids, max_size=6)) for v in leaves},
        "lt": {v: draw(st.integers(0, 6)) for v in leaves},
        "entries": entries,
        "w": draw(st.sampled_from(leaves)),
        "S": frozenset(draw(st.sets(st.integers(0, 80), max_size=4))),
    }


class TestOnReleaseDifferential:
    @given(_release_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_indexed_window_matches_figure1_scan(self, sc):
        """The ledger's bisect-and-suffix-minimum window gives the same
        ``uaw``, lease timers, leases and messages as Figure 1's scan."""
        tree = star_tree(sc["k"] + 1)
        runs = []
        for indexed in (True, False):
            node, outbox = make_node(tree, 0)
            node.taken.update(sc["taken"])
            node.granted.update(sc["granted"])
            node.granted[sc["w"]] = False  # T6 clears it before onrelease
            node.uaw.update({v: set(s) for v, s in sc["uaw"].items()})
            node.policy.lt.update(sc["lt"])
            if indexed:
                for v, rcvid, nid in sc["entries"]:
                    nids, rcvids = node.sntupdates.setdefault(v, ([], []))
                    nids.append(nid)
                    rcvids.append(rcvid)
                assert relay_triples(node.sntupdates) == tuple(sc["entries"])
                node._onrelease(sc["w"], sc["S"])
            else:
                _figure1_onrelease(node, sc["entries"], sc["w"], sc["S"])
            runs.append((dict(node.uaw), dict(node.policy.lt), dict(node.taken), outbox))
        assert runs[0] == runs[1]


class TestRelabeledUpdateChain:
    def test_three_level_relay_relabels_ids(self):
        tree = path_tree(4)
        system = AggregationSystem(tree)
        system.execute(combine(0))  # leases 3 -> 2 -> 1 -> 0
        system.execute(write(3, 5.0))
        # Each hop re-labels the update with its own counter; sntupdates
        # records the mapping at the interior nodes.
        assert relay_triples(system.nodes[2].sntupdates) == ((3, 1, 1),)
        assert relay_triples(system.nodes[1].sntupdates) == ((2, 1, 1),)
        system.execute(write(3, 6.0))  # second write: cascade of releases
        assert not system.nodes[1].granted[0]
        assert not system.nodes[2].granted[1]
        assert not system.nodes[3].granted[2]
        system.check_quiescent_invariants()


class TestNonNumericDomains:
    def test_k_smallest_through_full_mechanism(self):
        op = k_smallest(2)
        tree = path_tree(4)
        system = AggregationSystem(tree, op=op)
        for node, val in enumerate([9, 3, 7, 1]):
            system.execute(write(node, val))
        assert system.execute(combine(0)).retval == (1, 3)
        system.execute(write(1, 0))
        assert system.execute(combine(3)).retval == (0, 1)


class TestEngineDifferential:
    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_concurrent_with_gaps_equals_sequential(self, seed, n):
        """Sequential executions are the zero-overlap special case of the
        concurrent engine: with huge inter-request gaps the two engines
        must agree on every message and every answer."""
        tree = random_tree(n, seed % 71)
        wl = uniform_workload(tree.n, 30, read_ratio=0.5, seed=seed)
        seq = AggregationSystem(tree).run(copy_sequence(wl))
        sched = [
            ScheduledRequest(time=1_000.0 * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ]
        conc = ConcurrentAggregationSystem(
            tree, latency=constant_latency(1.0), ghost=False
        ).run(sched)
        assert conc.total_messages == seq.total_messages
        assert conc.stats.by_kind() == seq.stats.by_kind()
        assert conc.combine_results() == seq.combine_results()


class TestGlobalOptDominance:
    @pytest.mark.parametrize("policy", [RWWPolicy, AlwaysLeasePolicy, NeverLeasePolicy],
                             ids=["rww", "always", "never"])
    def test_every_policy_pays_at_least_global_opt(self, policy):
        """Every mechanism-realizable schedule respects the closure, so no
        policy can beat the closure-constrained offline optimum."""
        tree = path_tree(4)
        for seed in range(3):
            wl = uniform_workload(tree.n, 20, read_ratio=0.5, seed=seed)
            cost = AggregationSystem(tree, policy_factory=policy).run(
                copy_sequence(wl)
            ).total_messages
            assert cost >= global_offline_cost(tree, wl)


class TestSingleNodeSystems:
    def test_single_node_combine_and_write(self):
        from repro.tree import Tree

        system = AggregationSystem(Tree(1, []))
        system.execute(write(0, 3.0))
        assert system.execute(combine(0)).retval == 3.0
        assert system.stats.total == 0
        system.check_quiescent_invariants()
