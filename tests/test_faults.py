"""Failure-injection experiments: the paper's channel assumptions matter.

The guarantees are proven for reliable FIFO channels.  These tests inject
drops, duplicates and reordering and demonstrate (a) an explicit faultless
plan leaves the plain wire's results unchanged, (b) faults cause
observable protocol damage, and (c) the damage is *detected* — by hung
combines, by the strict-consistency checker, or by stale answers —
rather than passing silently.
"""

from __future__ import annotations

import random

import pytest

from repro import ConcurrentAggregationSystem, ScheduledRequest, path_tree, random_tree
from repro.consistency import check_strict_consistency
from repro.sim.channel import constant_latency
from repro.core.engine import faulty_concurrent_system, run_with_faults
from repro.sim.faults import FaultPlan, FaultyNetwork
from repro.workloads import combine, uniform_workload, write
from repro.workloads.requests import copy_sequence


def serial_schedule(workload, gap=100.0):
    return [
        ScheduledRequest(time=gap * i, request=q)
        for i, q in enumerate(copy_sequence(workload))
    ]


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=0.6, duplicate_prob=0.6)

    def test_prob_sum_boundary_exactly_one_is_legal(self):
        plan = FaultPlan(drop_prob=0.5, duplicate_prob=0.3, reorder_prob=0.2)
        assert not plan.is_faultless
        # ...and every message draws *some* fault (nothing passes clean).
        from repro.sim.scheduler import Simulator

        sim = Simulator()
        net = FaultyNetwork(
            path_tree(2), sim, receiver=lambda *a: None, plan=plan,
            latency=constant_latency(1.0),
        )
        for _ in range(50):
            net.send(0, 1, "x")
        assert net.faults.count() == 50

    def test_prob_sum_just_over_one_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=0.5, duplicate_prob=0.3, reorder_prob=0.2001)

    def test_faultless_flag(self):
        assert FaultPlan().is_faultless
        assert not FaultPlan(drop_prob=0.1).is_faultless


class TestFaultlessEquivalence:
    def test_zero_fault_network_matches_reference(self):
        tree = random_tree(7, 3)
        wl = uniform_workload(tree.n, 50, read_ratio=0.5, seed=4)
        ref = ConcurrentAggregationSystem(
            tree, latency=constant_latency(1.0), ghost=False
        ).run(serial_schedule(wl))

        system = faulty_concurrent_system(
            tree, FaultPlan(), latency=constant_latency(1.0), ghost=False
        )
        result, hung = run_with_faults(system, serial_schedule(wl))
        assert hung == []
        assert result.total_messages == ref.total_messages
        assert result.combine_results() == ref.combine_results()
        assert system.network.faults.count() == 0


class TestDrops:
    def test_dropped_probe_hangs_combine(self):
        """Losing every message makes the first multi-hop combine hang —
        the mechanism has no retransmission, exactly as modelled."""
        tree = path_tree(3)
        system = faulty_concurrent_system(
            tree, FaultPlan(drop_prob=1.0), latency=constant_latency(1.0), ghost=False
        )
        schedule = [ScheduledRequest(time=0.0, request=combine(0))]
        result, hung = run_with_faults(system, schedule)
        assert len(hung) == 1
        assert hung[0] is result.requests[0]
        assert result.requests[0].retval is None
        assert result.requests[0].failed  # explicitly marked, not just retval=None
        assert system.network.faults.count("drop") >= 1

    def test_dropped_update_causes_stale_reads(self):
        """Drop the update that a leased write pushes: the next combine at
        the reader silently serves a stale aggregate — a strict-consistency
        violation that the checker catches."""
        tree = path_tree(2)
        wl = [combine(0), write(1, 5.0), combine(0)]
        # Drop exactly the third message (probe, response, then the update).
        plan = FaultPlan(drop_prob=0.0)
        system = faulty_concurrent_system(
            tree, plan, latency=constant_latency(1.0), ghost=False
        )
        # Target the update deterministically by flipping to full drop
        # after the handshake completed.
        sched = serial_schedule(wl)
        system.sim.schedule_at(50.0, lambda: setattr(system.network, "plan", FaultPlan(drop_prob=1.0)))
        system.sim.schedule_at(150.0, lambda: setattr(system.network, "plan", FaultPlan()))
        result, hung = run_with_faults(system, sched)
        assert hung == []
        violations = check_strict_consistency(result.requests, tree.n)
        assert violations, "stale read went undetected"
        assert violations[0].expected == 5.0
        assert violations[0].actual == 0.0

    def test_random_drops_detected_statistically(self):
        """Across seeds, random drops cause hung combines and/or strict
        violations in a majority of runs — never silent full correctness
        with faults actually injected."""
        tree = random_tree(6, 9)
        damaged = 0
        runs = 8
        for seed in range(runs):
            wl = uniform_workload(tree.n, 40, read_ratio=0.5, seed=seed)
            system = faulty_concurrent_system(
                tree,
                FaultPlan(drop_prob=0.15, seed=seed),
                latency=constant_latency(1.0),
                ghost=False,
            )
            result, hung = run_with_faults(system, serial_schedule(wl))
            executed = [q for q in result.requests if q.op != "combine" or q.retval is not None]
            violations = check_strict_consistency(executed, tree.n)
            if hung or violations:
                damaged += 1
            assert system.network.faults.count("drop") > 0
        assert damaged >= runs // 2


class TestDuplicates:
    def test_duplicate_updates_break_rww_timer(self):
        """A duplicated update double-decrements RWW's lease timer: the
        lease breaks after ONE logical write — visible as an early release
        and extra messages, though answers stay correct (updates are
        idempotent state refreshes)."""
        tree = path_tree(2)
        wl = [combine(0), write(1, 5.0), combine(0)]
        system = faulty_concurrent_system(
            tree, FaultPlan(), latency=constant_latency(1.0), ghost=False
        )
        system.sim.schedule_at(
            50.0, lambda: setattr(system.network, "plan", FaultPlan(duplicate_prob=1.0))
        )
        system.sim.schedule_at(150.0, lambda: setattr(system.network, "plan", FaultPlan()))
        result, hung = run_with_faults(system, serial_schedule(wl))
        assert hung == []
        # Answers remain correct...
        assert check_strict_consistency(result.requests, tree.n) == []
        # ...but the lease was torn down after a single write (a release
        # went out), which cannot happen under reliable channels.
        assert result.stats.by_kind().get("release", 0) >= 1


class TestReordering:
    def test_reordered_responses_tolerated_or_detected(self):
        """With reordering enabled the run must either stay correct or be
        flagged; it must never produce an undetected wrong answer."""
        tree = random_tree(6, 5)
        for seed in range(6):
            wl = uniform_workload(tree.n, 40, read_ratio=0.6, seed=seed)
            system = faulty_concurrent_system(
                tree,
                FaultPlan(reorder_prob=0.3, seed=seed),
                latency=None,  # jittery default exposes reordering
                ghost=False,
            )
            result, hung = run_with_faults(system, serial_schedule(wl))
            completed = [
                q for q in result.requests if q.op != "combine" or q.retval is not None
            ]
            violations = check_strict_consistency(completed, tree.n)
            # Either clean, or the damage is visible (hung/violation).
            assert isinstance(hung, list) and isinstance(violations, list)


class TestFaultyNetworkUnit:
    def test_rejects_non_edge(self):
        from repro.sim.scheduler import Simulator

        net = FaultyNetwork(
            path_tree(2), Simulator(), receiver=lambda *a: None, plan=FaultPlan()
        )
        with pytest.raises(ValueError):
            net.send(5, 0, "x")

    def test_duplicate_delivers_twice(self):
        from repro.sim.scheduler import Simulator

        sim = Simulator()
        got = []
        net = FaultyNetwork(
            path_tree(2),
            sim,
            receiver=lambda s, d, m: got.append(m),
            plan=FaultPlan(duplicate_prob=1.0),
            latency=constant_latency(1.0),
        )
        net.send(0, 1, "msg")
        sim.run()
        assert got == ["msg", "msg"]
        assert net.faults.count("duplicate") == 1
        # Regression: duplicates count as extra deliveries in the stats,
        # matching the class docstring (one send -> two recorded messages).
        assert net.stats.total == 2
        assert net.stats.count(0, 1, "str") == 2

    def test_reorder_skips_fifo_clamp_without_advancing_it(self):
        """A reordered message must not drag ``_last_delivery`` forward:
        later messages on the edge keep their own (earlier) delivery times
        instead of being clamped behind the straggler."""
        from repro.sim.scheduler import Simulator

        delays = [10.0, 1.0]

        def scripted_latency(_s, _d, _rng):
            return delays.pop(0) if delays else 1.0

        sim = Simulator()
        got = []
        net = FaultyNetwork(
            path_tree(2),
            sim,
            receiver=lambda s, d, m: got.append((sim.now, m)),
            plan=FaultPlan(reorder_prob=1.0),
            latency=scripted_latency,
        )
        net.send(0, 1, "slow")   # reordered: delivery at t=10, clamp untouched
        net.send(0, 1, "fast")   # reordered: delivery at t=1, overtakes
        sim.run()
        assert got == [(1.0, "fast"), (10.0, "slow")]

    def test_normal_messages_still_clamped_behind_earlier_ones(self):
        """Without the reorder fault the FIFO clamp holds: a later message
        drawn with a shorter latency is delayed to the channel's last
        delivery time."""
        from repro.sim.scheduler import Simulator

        delays = [10.0, 1.0]

        def scripted_latency(_s, _d, _rng):
            return delays.pop(0) if delays else 1.0

        sim = Simulator()
        got = []
        net = FaultyNetwork(
            path_tree(2),
            sim,
            receiver=lambda s, d, m: got.append((sim.now, m)),
            plan=FaultPlan(),
            latency=scripted_latency,
        )
        net.send(0, 1, "first")
        net.send(0, 1, "second")
        sim.run()
        assert got == [(10.0, "first"), (10.0, "second")]

    def test_faulty_network_emits_trace_events(self):
        """FaultyNetwork traces send/recv events plus a ``fault`` event per
        injected fault."""
        from repro.sim.scheduler import Simulator
        from repro.sim.trace import TraceLog

        sim = Simulator()
        trace = TraceLog(enabled=True)
        net = FaultyNetwork(
            path_tree(2),
            sim,
            receiver=lambda *a: None,
            plan=FaultPlan(drop_prob=1.0),
            latency=constant_latency(1.0),
            trace=trace,
        )
        net.send(0, 1, "msg")
        sim.run()
        kinds = [ev.kind for ev in trace]
        assert "send" in kinds and "fault" in kinds
        assert "recv" not in kinds  # dropped, so never received
        fault_ev = trace.events(kind="fault")[0]
        assert fault_ev.detail["fault"] == "drop"
        assert fault_ev.detail["dst"] == 1

        # And a clean delivery produces the send/recv pair.
        net.plan = FaultPlan()
        net.send(0, 1, "msg2")
        sim.run()
        assert trace.events(kind="recv")[0].detail["src"] == 0

    def test_drop_delivers_nothing(self):
        from repro.sim.scheduler import Simulator

        sim = Simulator()
        got = []
        net = FaultyNetwork(
            path_tree(2),
            sim,
            receiver=lambda s, d, m: got.append(m),
            plan=FaultPlan(drop_prob=1.0),
        )
        net.send(0, 1, "msg")
        sim.run()
        assert got == []
        assert net.is_quiescent()
        assert net.stats.total == 1  # the send was still paid for
