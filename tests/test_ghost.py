"""The ghost-log merge cursor against the literal Figure-6 merge.

:meth:`GhostLog.merge` walks only the part of a sender's snapshot past that
sender's cursor.  These tests hold it to the ghost action as Figure 6 writes
it, ``log := log . (wlog_w − log)`` over the whole snapshot
(:class:`LiteralGhostLog`): on :class:`GhostLog` alone under generated
snapshot schedules, end to end on a raw faulty stack and on a reliable stack
with crashes, and across the topology changes that re-key or drop a cursor.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.mechanism as mechanism
from repro.core.engine import (
    ScheduledRequest,
    faulty_concurrent_system,
    reliable_concurrent_system,
    run_with_faults,
)
from repro.core.ghost import GhostLog
from repro.core.messages import Response
from repro.core.mechanism import LeaseNode
from repro.core.policies import RWWPolicy
from repro.ops import SUM
from repro.recovery import RecoveryConfig
from repro.sim.channel import uniform_latency
from repro.sim.faults import FaultPlan, crash, recover
from repro.sim.reliability import ReliabilityConfig
from repro.tree import Tree, path_tree, random_tree, star_tree
from repro.util.canon import canonical_value
from repro.workloads import Request, combine, uniform_workload
from repro.workloads.requests import GATHER, WRITE, copy_sequence


class LiteralGhostLog:
    """Figure 6's ghost state as written: every merge walks the whole
    snapshot against the whole log, and ``recentwrites`` scans the log."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.log = []
        self.wlog = []

    def append_write(self, request):
        self.log.append(request)
        self.wlog.append(request)

    def append_gather(self, combine_request):
        gather = Request(
            node=combine_request.node,
            op=GATHER,
            retval=self.recentwrites(),
            index=combine_request.index,
            initiated_at=combine_request.initiated_at,
            completed_at=combine_request.completed_at,
        )
        self.log.append(gather)
        return gather

    def merge(self, sender, wlog_snapshot):
        present = {(q.node, q.index) for q in self.log if q.op == WRITE}
        added = 0
        for q in wlog_snapshot:
            if (q.node, q.index) not in present:
                present.add((q.node, q.index))
                self.log.append(q)
                self.wlog.append(q)
                added += 1
        return added

    def wlog_snapshot(self):
        return tuple(self.wlog)

    def recentwrites(self):
        recent = {v: -1 for v in range(self.n_nodes)}
        for q in self.log:
            if q.op == WRITE:
                recent[q.node] = q.index
        return recent

    def contains_write(self, node, index):
        return any(q.node == node and q.index == index for q in self.wlog)

    def __len__(self):
        return len(self.log)


class TrackedSnapshot(tuple):
    """A snapshot that counts the entries read from it; ``touched`` says
    whether anything beyond its length was looked at."""

    def __new__(cls, items):
        snap = super().__new__(cls, items)
        snap.reads = 0
        snap.touched = False
        return snap

    def __getitem__(self, key):
        self.touched = True
        got = tuple.__getitem__(self, key)
        self.reads += len(got) if isinstance(key, slice) else 1
        return got

    def __iter__(self):
        self.touched = True
        self.reads += len(self)
        return tuple.__iter__(self)


def _write(node: int, index: int) -> Request:
    return Request(node=node, op=WRITE, arg=float(index), index=index)


def _same_state(g: GhostLog, ref: LiteralGhostLog) -> None:
    assert g.log == ref.log
    assert g.wlog == ref.wlog
    assert g.recentwrites() == ref.recentwrites()
    assert len(g) == len(ref)


# ------------------------------------------------- GhostLog alone, generated
RECEIVER = 0
SENDERS = (1, 2, 3)
#: Writes of a node beyond the senders, which reach the receiver only
#: through the senders' logs.
FAR = 4
N_NODES = 5

#: A sender's log grows by its own write, a far node's write, or a write it
#: relays from another log (another sender's or the receiver's).
_learn = st.tuples(
    st.just("learn"), st.sampled_from(SENDERS),
    st.sampled_from(("own", "far", "relay", "relay")), st.integers(0, 50),
)
_ops = st.lists(
    st.one_of(
        _learn,
        st.tuples(st.just("send"), st.sampled_from(SENDERS)),
        st.tuples(st.just("deliver"), st.integers(0, 50), st.booleans()),
        st.tuples(st.just("write")),
        st.tuples(st.just("gather")),
    ),
    max_size=100,
)


@settings(max_examples=200, deadline=None)
@given(_ops)
# A duplicate: the second copy is judged on its length alone.
@example([("learn", 1, "own", 0), ("send", 1), ("deliver", 0, True), ("deliver", 0, False)])
# The walked suffix holds a write already seen, so fewer are appended than
# walked; the cursor still moves to the snapshot's end.
@example([("write",), ("learn", 1, "relay", 0), ("learn", 1, "own", 0), ("send", 1),
          ("deliver", 0, False), ("learn", 1, "own", 0), ("send", 1), ("deliver", 0, False)])
# Sender 2 relays sender 1's write in a long snapshot; sender 1's own
# shorter snapshot still carries a new write.
@example([("learn", 1, "own", 0), ("learn", 2, "relay", 0), ("learn", 2, "own", 0),
          ("learn", 2, "own", 0), ("send", 2), ("deliver", 0, False),
          ("learn", 1, "own", 0), ("send", 1), ("deliver", 0, False)])
def test_merge_matches_literal_merge_under_any_snapshot_schedule(ops):
    """Senders' logs only grow; their snapshots arrive reordered,
    duplicated or never, between the receiver's own writes and gathers.
    The cursor merge keeps ``log``, ``wlog``, ``recentwrites()`` and every
    return value equal to the literal merge, and reads exactly the entries
    past the longest snapshot already merged from that sender."""
    g, ref = GhostLog(N_NODES), LiteralGhostLog(N_NODES)
    logs = {s: [] for s in SENDERS}
    counters = {v: 0 for v in range(N_NODES)}
    in_flight = []
    longest = {s: 0 for s in SENDERS}

    def fresh(node):
        q = _write(node, counters[node])
        counters[node] += 1
        return q

    for op in ops:
        if op[0] == "learn":
            _, s, source, k = op
            have = {(q.node, q.index) for q in logs[s]}
            known = [q for log in (*logs.values(), ref.wlog) for q in log]
            relayable = list({(q.node, q.index): q for q in known
                              if (q.node, q.index) not in have}.values())
            if source == "relay" and relayable:
                logs[s].append(relayable[k % len(relayable)])
            else:
                logs[s].append(fresh(FAR if source == "far" else s))
        elif op[0] == "send":
            in_flight.append((op[1], tuple(logs[op[1]])))
        elif op[0] == "deliver":
            if not in_flight:
                continue
            _, i, duplicate = op
            s, snap = in_flight[i % len(in_flight)]
            if not duplicate:
                in_flight.remove((s, snap))
            tracked = TrackedSnapshot(snap)
            assert g.merge(s, tracked) == ref.merge(s, snap)
            if len(snap) <= longest[s]:
                assert not tracked.touched
            else:
                assert tracked.reads == len(snap) - longest[s]
                longest[s] = len(snap)
        elif op[0] == "write":
            q = fresh(RECEIVER)
            g.append_write(q)
            ref.append_write(q)
        else:
            q = combine(RECEIVER)
            q.index = counters[RECEIVER]
            counters[RECEIVER] += 1
            assert g.append_gather(q) == ref.append_gather(q)
        _same_state(g, ref)
        for v, c in counters.items():
            for i in range(c):
                assert g.contains_write(v, i) == ref.contains_write(v, i)


# ------------------------------------------------------------- end to end
def _ghost_states(result):
    return {
        u: (tuple(canonical_value(q) for q in g.log), tuple(canonical_value(q) for q in g.wlog))
        for u, g in sorted(result.ghost_logs().items())
    }


def _run_twice(monkeypatch, run):
    """``run()`` with :class:`GhostLog`, then again with every node's ghost
    log a :class:`LiteralGhostLog`."""
    cursor = run()
    with monkeypatch.context() as m:
        m.setattr(mechanism, "GhostLog", LiteralGhostLog)
        literal = run()
    return cursor, literal


def _schedule(tree, n, seed, gap):
    wl = uniform_workload(tree.n, n, read_ratio=0.5, seed=seed)
    return [ScheduledRequest(gap * i, q) for i, q in enumerate(copy_sequence(wl))]


def test_raw_faulty_stack_matches_literal_merge(monkeypatch):
    """Reordered and duplicated messages, no reliable layer: snapshots from
    one sender arrive out of order and twice."""
    tree = random_tree(9, 4)

    def run():
        system = faulty_concurrent_system(
            tree,
            FaultPlan(duplicate_prob=0.1, reorder_prob=0.2, seed=11),
            latency=uniform_latency(0.5, 1.5),
            seed=5,
        )
        result, _ = run_with_faults(system, _schedule(tree, 80, 5, gap=0.6))
        writes = sum(1 for q in result.requests if q.op == WRITE)
        learned = sum(len(g.wlog) for g in result.ghost_logs().values()) - writes
        return _ghost_states(result), system.stats.by_kind(), learned

    cursor, literal = _run_twice(monkeypatch, run)
    assert cursor == literal
    assert cursor[2] > 0  # nodes learned writes from their neighbors


def test_reliable_stack_with_crashes_matches_literal_merge(monkeypatch):
    """Drops, duplicates, reordering and two crash/recover cycles under the
    reliable layer and the recovery manager."""
    tree = random_tree(10, 2)
    rng = random.Random(2)
    events = []
    for k, victim in enumerate(rng.sample(range(1, tree.n), 2)):
        events += [crash(victim, 30.0 + 50.0 * k), recover(victim, 45.0 + 50.0 * k)]
    plan = FaultPlan(drop_prob=0.05, duplicate_prob=0.05, reorder_prob=0.05,
                     seed=3, events=tuple(events))

    def run():
        system = reliable_concurrent_system(
            tree, plan,
            config=ReliabilityConfig(combine_deadline=100.0),
            latency=uniform_latency(0.5, 1.5),
            seed=3,
            trace_enabled=True,
            recovery=RecoveryConfig(checkpoint_interval=4, lease_ttl=40.0),
        )
        result = system.run(_schedule(tree, 60, 3, gap=2.0))
        return _ghost_states(result), system.stats.by_kind(), system.trace.count("node_crash")

    cursor, literal = _run_twice(monkeypatch, run)
    assert cursor == literal
    assert cursor[2] == 2  # both crashes happened


# ------------------------------------------------------- topology changes
def _receiver(tree: Tree, node_id: int) -> LeaseNode:
    return LeaseNode(node_id, tree, SUM, RWWPolicy(), send=lambda dst, msg: None, ghost=True)


def _deliver(node: LeaseNode, sender: int, snapshot) -> None:
    node.on_message(sender, Response(x=0.0, flag=False, wlog=snapshot))


def test_detached_neighbor_replaced_under_its_id_is_merged_whole():
    """Node 2 relayed two of node 0's writes to node 1 and left; a fresh
    node joins as 2 and writes once.  Its one-entry snapshot is shorter
    than the cursor its predecessor left, yet its write is new."""
    node = _receiver(path_tree(3), 1)
    ref = LiteralGhostLog(3)
    before = (_write(0, 0), _write(0, 1))
    after = (_write(2, 0),)
    _deliver(node, 2, before)
    ref.merge(2, before)
    node.detach_neighbor(2, Tree(2, [(0, 1)]))
    node.attach_neighbor(2, path_tree(3))
    _deliver(node, 2, after)
    ref.merge(2, after)
    assert node.ghost.contains_write(2, 0)
    _same_state(node.ghost, ref)


def test_renamed_neighbor_keeps_suffix_only_merging():
    """Dense-id compaction as the dynamic engine does it: leaf 2 leaves and
    leaf 3 is renamed 2.  The next snapshot from the renamed leaf is walked
    from where its last one as 3 ended."""
    node = _receiver(star_tree(4), 0)
    ref = LiteralGhostLog(4)
    first = (_write(3, 0), _write(3, 1), _write(3, 2))
    _deliver(node, 2, (_write(2, 0),))
    ref.merge(2, (_write(2, 0),))
    _deliver(node, 3, first)
    ref.merge(3, first)
    node.detach_neighbor(2, Tree(3, [(0, 1), (0, 2)]))
    node.rename_neighbor(3, 2)
    grown = first + (_write(3, 3),)
    tracked = TrackedSnapshot(grown)
    _deliver(node, 2, tracked)
    ref.merge(2, grown)
    assert tracked.reads == 1
    _same_state(node.ghost, ref)
