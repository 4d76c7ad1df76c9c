"""Crash-recovery subsystem tests.

Covers the `repro.recovery` package end-to-end: checkpoint capture and
restore, scheduled crash/recover faults healed by the
:class:`~repro.recovery.manager.RecoveryManager` (time-to-recover
metrics, lease-TTL expiry), the two churn-hardening regressions in the
reliable layer (give-up conversation restart) and the recovery sweep
(stuck-round re-probe), :meth:`NodeRuntime.fork` parity over the reliable
transport, and a randomized chaos regression sweep (~20 seeded schedules,
drop ≤ 0.2, zero causal violations).
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import ScheduledRequest, reliable_concurrent_system
from repro.core.messages import Probe
from repro.core.policies import NeverLeasePolicy
from repro.core.runtime import NodeRuntime
from repro.recovery import Checkpoint, CheckpointStore, RecoveryConfig
from repro.sim.channel import constant_latency
from repro.sim.faults import FaultPlan, crash, heal, partition, recover
from repro.sim.reliability import ReliabilityConfig
from repro.tree.generators import balanced_kary_tree, path_tree, star_tree
from repro.verify.causal import check_trace
from repro.workloads.requests import COMBINE, combine, copy_sequence, write
from repro.workloads.synthetic import uniform_workload


def _reliable(tree, plan, *, recovery=None, max_retries=12, deadline=None,
              seed=0):
    return reliable_concurrent_system(
        tree,
        plan,
        config=ReliabilityConfig(
            base_timeout=6.0, backoff=1.5, max_timeout=20.0,
            max_retries=max_retries, combine_deadline=deadline,
        ),
        latency=constant_latency(1.0),
        seed=seed,
        trace_enabled=True,
        recovery=recovery,
    )


def _schedule(requests, gap=100.0):
    return [ScheduledRequest(time=gap * i, request=q)
            for i, q in enumerate(requests)]


# ----------------------------------------------------------- checkpointing
class TestCheckpoint:
    def test_capture_restore_roundtrip(self):
        system = _reliable(path_tree(3), FaultPlan())
        system.run(_schedule([write(0, 5.0), combine(2), write(2, 7.0)]))
        node = system.runtime.nodes[1]
        before = node.state_snapshot()
        cp = Checkpoint.capture(node, seq=0, time=system.runtime.now)

        # Wreck the volatile state, then restore.
        node.crash_volatile()
        node.taken = {k: False for k in node.taken}
        node.granted = {k: False for k in node.granted}
        cp.restore(node)
        assert node.state_snapshot() == before

    def test_store_keeps_latest_per_node(self):
        store = CheckpointStore()
        system = _reliable(path_tree(2), FaultPlan())
        node = system.runtime.nodes[0]
        first = Checkpoint.capture(node, seq=store.next_seq(0), time=0.0)
        store.save(first)
        second = Checkpoint.capture(node, seq=store.next_seq(0), time=1.0)
        store.save(second)
        assert store.latest(0) is second
        assert store.latest(1) is None
        assert second.seq == first.seq + 1


# ---------------------------------------------------- scheduled crash cycle
class TestScheduledCrashRecovery:
    def test_crash_recover_cycle_reports_time_to_recover(self):
        tree = path_tree(4)
        plan = FaultPlan(events=(crash(2, 250.0), recover(2, 400.0)))
        system = _reliable(
            tree, plan,
            recovery=RecoveryConfig(
                checkpoint_interval=100.0, lease_ttl=200.0, horizon=1500.0,
            ),
            deadline=600.0,
        )
        result = system.run(_schedule(
            [write(0, 1.0), combine(3), write(3, 2.0), combine(0),
             write(1, 4.0), combine(2)], gap=150.0,
        ))
        system.check_quiescent_invariants()
        mgr = system.runtime.recovery
        assert mgr.recovery_durations == pytest.approx([150.0])
        counters = system.runtime.metrics.snapshot()["counters"]
        assert counters["crashes_total"] == [{"labels": {"node": 2}, "value": 1}]
        assert counters["recoveries_total"] == [{"labels": {"node": 2}, "value": 1}]
        events = system.trace.events()
        assert any(e.kind == "node_crash" and e.node == 2 for e in events)
        assert any(e.kind == "node_recover" and e.node == 2 for e in events)
        assert any(e.kind == "checkpoint" for e in events)
        report = check_trace(events, n_nodes=tree.n)
        assert report.ok, [str(v) for v in report.violations]
        # No combine may hang: each completed or was failed fast.
        for q in result.requests:
            if q.op == COMBINE:
                assert q.index >= 0 or q.failed

    def test_lease_ttl_expires_dead_holders_leases(self):
        tree = path_tree(3)
        # Node 2 dies and never comes back inside the horizon.
        plan = FaultPlan(events=(crash(2, 150.0),))
        system = _reliable(
            tree, plan,
            recovery=RecoveryConfig(
                checkpoint_interval=100.0, lease_ttl=100.0, horizon=900.0,
            ),
            deadline=400.0,
        )
        system.run(_schedule([write(0, 1.0), combine(2), combine(0)]))
        events = system.trace.events()
        assert any(e.kind == "lease_expired" for e in events)


# ------------------------------------------------- reliable-layer regressions
class TestConversationRestart:
    """A give-up mid-partition must not wedge the edge forever.

    Regression: the receiver can never advance past a given-up segment's
    sequence gap, so before the restart logic one exhausted retry budget
    killed the directed edge for the rest of the run — observed as probe
    rounds stuck long after the partition healed.
    """

    def test_edge_survives_give_up_and_heal(self):
        tree = path_tree(3)
        plan = FaultPlan(events=(partition([(1, 2)], 120.0), heal(400.0)))
        system = _reliable(tree, plan, max_retries=2, deadline=250.0)
        result = system.run(_schedule(
            [write(2, 3.0), combine(0),   # installs the lease chain
             write(2, 5.0),               # update 2->1 dies mid-cut
             write(0, 1.0),
             write(2, 9.0), combine(0)],  # crosses the healed edge
            gap=110.0,
        ))
        assert any(e.kind == "conversation_restart"
                   for e in system.trace.events())
        final = result.requests[-1]
        assert final.retval == pytest.approx(10.0)
        system.check_quiescent_invariants()

    def test_post_heal_sends_on_failed_edge_still_deliver(self):
        tree = path_tree(2)
        plan = FaultPlan(events=(partition([(0, 1)], 10.0), heal(300.0)))
        system = _reliable(tree, plan, max_retries=1)
        runtime = system.runtime
        # Mid-cut: this probe exhausts its retry budget and is declared
        # lost, leaving a sequence gap on the edge.
        runtime.sim.schedule_at(50.0, lambda: runtime.nodes[0].send(1, Probe()))
        # Post-heal: the edge must still work (pre-restart-fix it stayed
        # wedged behind the gap forever).
        runtime.sim.schedule_at(350.0, lambda: runtime.nodes[0].send(1, Probe()))
        runtime.drain()
        events = system.trace.events()
        # Wire-level frame losses are also declared (seg:*/ack); the
        # reliable layer's own give-up reports the logical kind.
        gave_up = [e for e in events if e.kind == "delivery_failed"
                   and not e.detail["msg"].startswith("seg:")
                   and e.detail["msg"] != "ack"]
        assert [e.detail["msg"] for e in gave_up] == ["probe"]
        assert any(e.kind == "conversation_restart" for e in events)
        delivered = [e for e in events
                     if e.kind == "deliver" and e.node == 1
                     and e.detail["msg"] == "probe" and e.time > 300.0]
        assert len(delivered) == 1


class TestStuckRoundReprobe:
    """The recovery sweep re-probes rounds stuck across a partition.

    Regression: a probe (or its response) declared lost mid-cut leaves
    ``pndg``/``snt`` open with nothing scheduled to retry it — the sweep's
    round-age check is what heals it after the partition heals.
    """

    def test_sweep_reprobe_completes_wedged_combine(self):
        tree = path_tree(3)
        plan = FaultPlan(events=(partition([(1, 2)], 10.0), heal(500.0)))
        system = _reliable(
            tree, plan, max_retries=2,
            recovery=RecoveryConfig(
                checkpoint_interval=200.0, lease_ttl=100.0, horizon=1200.0,
            ),
        )
        result = system.run([
            ScheduledRequest(time=0.0, request=write(2, 6.0)),
            # Initiated mid-cut: the probe toward node 2 exhausts its
            # retries, the round wedges, and only the sweep re-probe
            # (after the heal) can complete it.
            ScheduledRequest(time=50.0, request=combine(0)),
        ])
        events = system.trace.events()
        assert any(e.kind == "reprobe" for e in events)
        assert result.requests[-1].retval == pytest.approx(6.0)
        system.check_quiescent_invariants()

    def test_new_round_for_the_same_root_restarts_the_age(self):
        # Regression: a round that closed and was replaced by a new round
        # for the same root between two sweeps inherited the old round's
        # first-seen time, so the sweep re-probed a young round.  The
        # duplicate probe's late Response could re-install a lease its
        # holder had already released (Lemma 3.1 broken for good).
        now = [0.0]
        runtime = NodeRuntime(
            path_tree(2), policy_factory=NeverLeasePolicy, trace_enabled=True,
            clock=lambda: now[0], recovery=RecoveryConfig(lease_ttl=10.0),
        )
        node = runtime.nodes[0]
        node.begin_combine(combine(0), lambda done: None)
        runtime.recovery.sweep()  # t=0: the first round is seen
        runtime.drain()           # ... and closes
        assert not node.pndg
        now[0] = 5.0
        node.begin_combine(combine(0), lambda done: None)
        now[0] = 10.0
        runtime.recovery.sweep()  # a TTL after the first round's sighting
        assert runtime.trace.count("reprobe") == 0
        now[0] = 20.0
        runtime.recovery.sweep()  # a TTL after the new round's sighting
        assert runtime.trace.count("reprobe") == 1


# --------------------------------------------------------------- fork parity
class TestForkOverReliableTransport:
    def test_fork_parity_with_inflight_segments(self):
        tree = path_tree(3)
        system = _reliable(tree, FaultPlan())
        runtime = system.runtime
        # Put transport-level state in flight: an unacked probe segment
        # plus its retransmission timer.
        runtime.nodes[0].send(1, Probe())
        assert runtime.network.in_flight() > 0

        clone = runtime.fork()
        assert clone.state_snapshot() == runtime.state_snapshot()
        assert clone.network.pending_snapshot() == runtime.network.pending_snapshot()

        # Both drain to the same quiescent state, independently.
        runtime.drain()
        clone.drain()
        assert runtime.is_quiescent() and clone.is_quiescent()
        assert clone.state_snapshot() == runtime.state_snapshot()

        # Divergence stays contained: traffic in the clone never shows up
        # in the original's conversation state.
        before = runtime.network.pending_snapshot()
        clone.nodes[2].send(1, Probe())
        assert clone.network.in_flight() > 0
        assert runtime.network.pending_snapshot() == before
        clone.drain()
        assert runtime.network.pending_snapshot() == before

    def test_fork_parity_under_retransmission(self):
        tree = path_tree(2)
        # Heavy drop: retransmission timers are live at fork time.
        system = _reliable(tree, FaultPlan(drop_prob=0.5, seed=3), seed=3)
        runtime = system.runtime
        runtime.nodes[0].send(1, Probe())
        runtime.sim.run(until=7.0)  # past base_timeout: at least one retry
        clone = runtime.fork()
        assert clone.network.pending_snapshot() == runtime.network.pending_snapshot()
        runtime.drain()
        clone.drain()
        # Deterministic seeds deep-copy with the runtime: both branches
        # resolve the retransmission race identically.
        assert clone.state_snapshot() == runtime.state_snapshot()

    def test_fork_rebinds_the_recovery_manager(self):
        # The manager holds the runtime's clock and down check as bound
        # methods, so a fork's manager reads the fork's virtual time and
        # crashed set, never the original's.
        system = _reliable(
            path_tree(3), FaultPlan(),
            recovery=RecoveryConfig(
                checkpoint_interval=50.0, lease_ttl=100.0, horizon=300.0,
            ),
        )
        runtime = system.runtime
        clone = runtime.fork()
        assert clone.recovery.nodes is clone.nodes
        clone.drain()
        assert clone.now > 0.0
        assert clone.recovery.clock() == clone.now
        assert runtime.recovery.clock() == runtime.now == 0.0
        clone.crash(1)
        assert clone.recovery.is_down(1)
        assert not runtime.recovery.is_down(1)
        assert [cp.node for cp in clone.recovery.checkpoint_now()] == [0, 2]
        assert [cp.node for cp in runtime.recovery.checkpoint_now()] == [0, 1, 2]


# ----------------------------------------------------- randomized regression
class TestRandomizedChaos:
    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_chaos_schedules_stay_causal(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.choice([3, 4, 5])
        tree = {
            0: path_tree(n),
            1: star_tree(n),
            2: balanced_kary_tree(2, 2),
        }[seed % 3]
        gap = 150.0
        wl = uniform_workload(tree.n, 10, read_ratio=0.5, seed=seed)
        events = []
        if seed % 2 == 0:
            victim = rng.randrange(1, tree.n)
            t0 = rng.uniform(200.0, 600.0)
            events += [crash(victim, t0), recover(victim, t0 + gap)]
        plan = FaultPlan(
            drop_prob=rng.uniform(0.0, 0.2),
            seed=seed + 17,
            events=tuple(events),
        )
        system = _reliable(
            tree, plan,
            recovery=RecoveryConfig(
                checkpoint_interval=2 * gap, lease_ttl=2 * gap,
                horizon=gap * len(wl) + 6 * gap,
            ),
            max_retries=25,
            deadline=3 * gap,
            seed=seed,
        )
        result = system.run(_schedule(copy_sequence(wl), gap=gap))
        system.check_quiescent_invariants()
        report = check_trace(system.trace.events(), n_nodes=tree.n)
        assert report.ok, [str(v) for v in report.violations]
        hung = [q for q in result.requests
                if q.op == COMBINE and q.index < 0 and not q.failed]
        assert not hung
