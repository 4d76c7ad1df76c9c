"""Unit tests for the LeaseNode automaton (Figure 1 transitions)."""

from __future__ import annotations

import pytest

from repro import MIN, SUM
from repro.core.messages import Probe, Release, Response, Update
from repro.core.mechanism import LeaseNode, relay_triples
from repro.core.policies import RWWPolicy
from repro.tree import Tree, path_tree, star_tree, two_node_tree
from repro.workloads import combine, write


def make_node(tree: Tree, node_id: int, op=SUM, policy=None, ghost=False):
    """A LeaseNode with a recording outbox, driven by hand."""
    outbox = []
    node = LeaseNode(
        node_id,
        tree,
        op,
        policy if policy is not None else RWWPolicy(),
        send=lambda dst, msg: outbox.append((dst, msg)),
        ghost=ghost,
    )
    return node, outbox


class TestSingleNodeTree:
    def test_combine_on_isolated_node(self):
        tree = Tree(1, [])
        node, outbox = make_node(tree, 0)
        done = []
        node.write(write(0, 7.0))
        node.begin_combine(combine(0), done.append)
        assert done and done[0].retval == 7.0
        assert outbox == []


class TestT1Combine:
    def test_probes_all_untaken_neighbors(self):
        tree = star_tree(4)
        node, outbox = make_node(tree, 0)
        node.begin_combine(combine(0), lambda q: None)
        assert sorted(dst for dst, m in outbox) == [1, 2, 3]
        assert all(isinstance(m, Probe) for _, m in outbox)
        assert node.pndg == {0}
        assert node.snt[0] == {1, 2, 3}

    def test_immediate_return_when_all_taken(self):
        tree = two_node_tree()
        node, outbox = make_node(tree, 0)
        node.taken[1] = True
        node.aval[1] = 5.0
        done = []
        node.begin_combine(combine(0), done.append)
        assert done[0].retval == 5.0
        assert outbox == []

    def test_clears_uaw_of_taken_neighbors(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0)
        node.taken[1] = True
        node.uaw[1].add(3)
        node.begin_combine(combine(0), lambda q: None)
        assert node.uaw[1] == set()

    def test_second_combine_while_pending_joins_round(self):
        tree = two_node_tree()
        node, outbox = make_node(tree, 0)
        done = []
        node.begin_combine(combine(0), done.append)
        node.begin_combine(combine(0), done.append)
        assert len(outbox) == 1  # no duplicate probe
        node.on_message(1, Response(x=4.0, flag=True))
        assert len(done) == 2
        assert done[0].retval == done[1].retval == 4.0
        assert done[0].index == 0 and done[1].index == 1


class TestT2Write:
    def test_write_without_grants_is_silent(self):
        tree = two_node_tree()
        node, outbox = make_node(tree, 0)
        node.write(write(0, 9.0))
        assert node.val == 9.0
        assert outbox == []

    def test_write_with_grant_sends_update(self):
        tree = two_node_tree()
        node, outbox = make_node(tree, 0)
        node.granted[1] = True
        node.write(write(0, 9.0))
        assert len(outbox) == 1
        dst, msg = outbox[0]
        assert dst == 1 and isinstance(msg, Update)
        assert msg.x == 9.0 and msg.id == 1

    def test_update_ids_monotone(self):
        tree = two_node_tree()
        node, outbox = make_node(tree, 0)
        node.granted[1] = True
        node.write(write(0, 1.0))
        node.write(write(0, 2.0))
        ids = [m.id for _, m in outbox]
        assert ids == [1, 2]

    def test_write_lifts_value(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0, op=MIN)
        node.write(write(0, 3.0))
        assert node.val == 3.0

    def test_write_assigns_index(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0)
        q1, q2 = write(0, 1.0), write(0, 2.0)
        node.write(q1)
        node.write(q2)
        assert (q1.index, q2.index) == (0, 1)


class TestT3Probe:
    def test_leaf_responds_immediately_with_lease(self):
        tree = two_node_tree()
        node, outbox = make_node(tree, 1)
        node.val = 5.0
        node.on_message(0, Probe())
        dst, msg = outbox[0]
        assert dst == 0 and isinstance(msg, Response)
        assert msg.x == 5.0 and msg.flag is True  # RWW's setlease is always true
        assert node.granted[0] is True

    def test_interior_node_relays_probes(self):
        tree = path_tree(3)
        node, outbox = make_node(tree, 1)
        node.on_message(0, Probe())
        assert outbox == [(2, Probe())]
        assert node.pndg == {0}
        assert node.snt[0] == {2}

    def test_relay_skips_taken_neighbors(self):
        tree = star_tree(4)
        node, outbox = make_node(tree, 0)
        node.taken[2] = True
        node.on_message(1, Probe())
        assert sorted(dst for dst, _ in outbox) == [3]

    def test_probe_from_pending_requestor_is_subsumed(self):
        tree = path_tree(3)
        node, outbox = make_node(tree, 1)
        node.on_message(0, Probe())
        outbox.clear()
        node.on_message(0, Probe())  # duplicate while round open
        assert outbox == []

    def test_probe_clears_other_uaw(self):
        tree = star_tree(3)
        node, _ = make_node(tree, 0)
        node.taken[1] = True
        node.taken[2] = True
        node.uaw[1].add(1)
        node.uaw[2].add(2)
        node.on_message(1, Probe())
        assert node.uaw[2] == set()
        assert node.uaw[1] == {1}  # the prober's own side is not cleared


class TestT4Response:
    def test_response_completes_own_round(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0)
        done = []
        node.begin_combine(combine(0), done.append)
        node.on_message(1, Response(x=8.0, flag=True))
        assert done[0].retval == 8.0
        assert node.taken[1] is True
        assert node.pndg == set() and node.quiescent_state_ok()

    def test_response_relays_to_waiting_requestor(self):
        tree = path_tree(3)
        node, outbox = make_node(tree, 1)
        node.val = 1.0
        node.on_message(0, Probe())
        outbox.clear()
        node.on_message(2, Response(x=10.0, flag=True))
        dst, msg = outbox[0]
        assert dst == 0 and isinstance(msg, Response)
        assert msg.x == 11.0  # own val + subtree aval
        assert node.granted[0] is True

    def test_response_with_false_flag_does_not_take(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0)
        node.begin_combine(combine(0), lambda q: None)
        node.on_message(1, Response(x=2.0, flag=False))
        assert node.taken[1] is False
        assert node.aval[1] == 2.0

    def test_shared_response_serves_multiple_rounds(self):
        # Node 1 relays for requestor 0, then starts its own round.  The
        # probe to 2 is shared (sntprobes suppresses a duplicate); node 1
        # additionally probes 0 for its own round.  One response from 2
        # advances both rounds.
        tree = path_tree(3)
        node, outbox = make_node(tree, 1)
        node.on_message(0, Probe())
        done = []
        node.begin_combine(combine(1), done.append)
        probes = [(d, m) for d, m in outbox if isinstance(m, Probe)]
        assert [d for d, _ in probes] == [2, 0]  # shared probe to 2, own to 0
        node.on_message(2, Response(x=3.0, flag=True))
        # Requestor 0's round is complete; own round still awaits node 0.
        responses = [(d, m) for d, m in outbox if isinstance(m, Response)]
        assert responses == [(0, Response(x=3.0, flag=True))]
        assert not done
        node.on_message(0, Response(x=7.0, flag=True))
        assert done and done[0].retval == 10.0  # 7 (node 0 side) + 3 (node 2 side)


class TestT5Update:
    def test_update_refreshes_aval(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0)
        node.taken[1] = True
        node.policy.lt[1] = 2  # as if freshly leased
        node.on_message(1, Update(x=4.0, id=1))
        assert node.aval[1] == 4.0
        assert node.uaw[1] == {1}

    def test_update_forwarded_to_granted(self):
        tree = path_tree(3)
        node, outbox = make_node(tree, 1)
        node.taken[0] = True
        node.granted[2] = True
        node.on_message(0, Update(x=6.0, id=9))
        dst, msg = outbox[0]
        assert dst == 2 and isinstance(msg, Update)
        assert msg.x == 6.0
        assert msg.id == 1  # relabeled with this node's newid
        assert relay_triples(node.sntupdates) == ((0, 9, 1),)

    def test_second_update_triggers_release_rww(self):
        tree = two_node_tree()
        node, outbox = make_node(tree, 0)
        # Simulate having acquired the lease via a response.
        node.begin_combine(combine(0), lambda q: None)
        node.on_message(1, Response(x=0.0, flag=True))
        outbox.clear()
        node.on_message(1, Update(x=1.0, id=1))
        assert outbox == []  # first write tolerated
        node.on_message(1, Update(x=2.0, id=2))
        assert len(outbox) == 1
        dst, msg = outbox[0]
        assert dst == 1 and isinstance(msg, Release)
        assert msg.S == frozenset({1, 2})
        assert node.taken[1] is False
        assert node.uaw[1] == set()


class TestT6Release:
    def test_release_clears_grant(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0)
        node.granted[1] = True
        node.on_message(1, Release(S=frozenset({1, 2})))
        assert node.granted[1] is False

    def test_release_cascades_upstream(self):
        # Chain 0 -> 1 -> 2 of leases: 1 holds taken[0] and granted[2].
        # Releases arriving from 2 make 1 re-evaluate (and here break) its
        # own lease from 0 via the retroactive uaw accounting.
        tree = path_tree(3)
        node, outbox = make_node(tree, 1)
        node.begin_combine(combine(1), lambda q: None)
        node.on_message(0, Response(x=0.0, flag=True))
        node.on_message(2, Response(x=0.0, flag=True))
        node.granted[2] = True  # as if 2 probed and we granted
        outbox.clear()
        # Two updates from 0 relayed to 2 (no lt decrement: grant to 2 active).
        node.on_message(0, Update(x=1.0, id=1))
        node.on_message(0, Update(x=2.0, id=2))
        relayed = [m for d, m in outbox if isinstance(m, Update)]
        assert [m.id for m in relayed] == [1, 2]
        outbox.clear()
        # 2 releases naming both relayed updates; 1 must now release 0 too.
        node.on_message(2, Release(S=frozenset({1, 2})))
        releases = [(d, m) for d, m in outbox if isinstance(m, Release)]
        assert releases and releases[0][0] == 0
        assert releases[0][1].S == frozenset({1, 2})
        assert node.taken[0] is False

    def test_release_with_stale_window_keeps_lease(self):
        # Only one relayed update falls in the released window: the lease
        # from 0 survives with lt = 1.
        tree = path_tree(3)
        node, outbox = make_node(tree, 1)
        node.begin_combine(combine(1), lambda q: None)
        node.on_message(0, Response(x=0.0, flag=True))
        node.on_message(2, Response(x=0.0, flag=True))
        node.granted[2] = True
        outbox.clear()
        node.on_message(0, Update(x=1.0, id=1))
        node.write(write(1, 5.0))  # local write also updates 2 (id 2 at node 1)
        node.on_message(2, Release(S=frozenset({2, 3})))
        # Window: relayed update from 0 had sntid 1 < min(S)=2 -> empty window
        # -> uaw[0] reset, lease from 0 kept fresh.
        assert node.taken[0] is True
        assert node.uaw[0] == set()
        assert node.policy.lt[0] == 2


class TestValueFunctions:
    def test_gval_combines_all(self):
        tree = star_tree(3)
        node, _ = make_node(tree, 0)
        node.val = 1.0
        node.aval[1] = 2.0
        node.aval[2] = 3.0
        assert node.gval() == 6.0

    def test_subval_excludes_target(self):
        tree = star_tree(3)
        node, _ = make_node(tree, 0)
        node.val = 1.0
        node.aval[1] = 2.0
        node.aval[2] = 3.0
        assert node.subval(1) == 4.0
        assert node.subval(2) == 3.0

    def test_min_operator_gval(self):
        tree = star_tree(3)
        node, _ = make_node(tree, 0, op=MIN)
        node.val = 5.0
        node.aval[1] = 2.0
        assert node.gval() == 2.0

    def test_unknown_message_type_raises(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0)
        with pytest.raises(TypeError):
            node.on_message(1, object())

    def test_newid_monotone(self):
        tree = two_node_tree()
        node, _ = make_node(tree, 0)
        assert [node.newid() for _ in range(3)] == [1, 2, 3]


class TestSendResponseGuard:
    def test_no_grant_when_other_neighbor_untaken(self):
        # sendresponse only grants when all other neighbors are taken
        # (Lemma 3.2's precondition).
        tree = path_tree(3)
        node, outbox = make_node(tree, 1)
        node.on_message(0, Probe())  # relays to 2; no response yet
        node.on_message(2, Response(x=0.0, flag=False))  # 2 declines lease
        responses = [m for d, m in outbox if isinstance(m, Response)]
        assert len(responses) == 1
        assert responses[0].flag is False
        assert node.granted[0] is False
