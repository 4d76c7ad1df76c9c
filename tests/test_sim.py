"""Tests for repro.sim: events, scheduler, the wire, stats, traces."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    EventQueue,
    FaultyNetwork,
    MessageStats,
    Simulator,
    TraceLog,
    constant_latency,
    uniform_latency,
)
from repro.sim.channel import exponential_latency
from repro.sim.network import SynchronousNetwork
from repro.sim.scheduler import SimulationLimitError
from repro.tree import path_tree


def edge_01(sim, got, **kw):
    """The wire on a two-node tree; ``got`` collects what edge 0->1 delivers."""
    return FaultyNetwork(path_tree(2), sim, receiver=lambda s, d, m: got.append(m), **kw)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(3.0, lambda: fired.append(3))
        q.push(1.0, lambda: fired.append(1))
        q.push(2.0, lambda: fired.append(2))
        while (ev := q.pop()) is not None:
            ev.action()
        assert fired == [1, 2, 3]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.push(1.0, lambda i=i: fired.append(i))
        while (ev := q.pop()) is not None:
            ev.action()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancel_skips_event(self):
        q = EventQueue()
        fired = []
        ev = q.push(1.0, lambda: fired.append("a"))
        q.push(2.0, lambda: fired.append("b"))
        ev.cancel()
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["b"]

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        ev.cancel()
        assert q.peek_time() == 5.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.clear()
        assert not q


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []
        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))
        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_step(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_schedule_at_rejects_past(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_event_budget_guard(self):
        sim = Simulator()
        def loop():
            sim.schedule(1.0, loop)
        sim.schedule(1.0, loop)
        with pytest.raises(SimulationLimitError):
            sim.run(max_events=100)

    def test_quiescence(self):
        sim = Simulator()
        assert sim.is_quiescent()
        sim.schedule(1.0, lambda: None)
        assert not sim.is_quiescent()
        sim.run()
        assert sim.is_quiescent()

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestLatencyModels:
    def test_constant(self):
        lat = constant_latency(2.5)
        assert lat(0, 1, random.Random(0)) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            constant_latency(-1.0)

    def test_uniform_in_range(self):
        lat = uniform_latency(1.0, 3.0)
        rng = random.Random(7)
        for _ in range(50):
            assert 1.0 <= lat(0, 1, rng) <= 3.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform_latency(3.0, 1.0)
        with pytest.raises(ValueError):
            uniform_latency(-1.0, 2.0)

    def test_exponential_positive(self):
        lat = exponential_latency(2.0)
        rng = random.Random(3)
        assert all(lat(0, 1, rng) >= 0 for _ in range(20))

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            exponential_latency(0.0)


class TestFifoChannel:
    """One directed edge of the wire under its default, faultless plan:
    the reliable FIFO channel with latency of Section 5."""

    def test_delivers_in_order_constant(self):
        sim = Simulator()
        got = []
        net = edge_01(sim, got, latency=constant_latency(1.0))
        for i in range(5):
            net.send(0, 1, i)
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=30))
    @settings(max_examples=25)
    def test_fifo_preserved_under_random_latency(self, seed, n):
        sim = Simulator()
        got = []
        net = edge_01(sim, got, latency=uniform_latency(0.0, 10.0), seed=seed)
        for i in range(n):
            net.send(0, 1, i)
        sim.run()
        assert got == list(range(n))

    def test_in_flight_accounting(self):
        sim = Simulator()
        got = []
        net = edge_01(sim, got)
        net.send(0, 1, "x")
        assert net.in_flight() == 1
        sim.run()
        assert net.in_flight() == 0
        assert net.stats.total == len(got) == 1

    def test_delivery_time_clamped(self):
        # A later send with a tiny latency draw may not overtake an earlier one.
        sim = Simulator()
        times = []
        draws = iter([10.0, 0.1])
        net = FaultyNetwork(
            path_tree(2), sim,
            receiver=lambda s, d, m: times.append(sim.now),
            latency=lambda s, d, r: next(draws),
        )
        net.send(0, 1, "a")
        net.send(0, 1, "b")
        sim.run()
        assert times == [10.0, 10.0]

    def test_rejects_negative_latency_draw(self):
        sim = Simulator()
        net = edge_01(sim, [], latency=lambda s, d, r: -1.0)
        with pytest.raises(ValueError, match="negative delay"):
            net.send(0, 1, "x")


class TestMessageStats:
    def test_totals_and_kinds(self):
        s = MessageStats()
        s.record(0, 1, "probe")
        s.record(1, 0, "response")
        s.record(0, 1, "probe")
        assert s.total == 3
        assert s.count(0, 1, "probe") == 2
        assert s.by_kind() == {"probe": 2, "response": 1}

    def test_edge_totals(self):
        s = MessageStats()
        s.record(0, 1, "update")
        s.record(1, 0, "release")
        assert s.edge_total(0, 1) == 1
        assert s.undirected_edge_total(0, 1) == 2

    def test_directional_cost_definition(self):
        # C(σ, u, v) counts probes v->u, responses u->v, updates u->v,
        # releases v->u (the definition before Lemma 3.9).
        s = MessageStats()
        s.record(1, 0, "probe")     # v=1 -> u=0
        s.record(0, 1, "response")  # u -> v
        s.record(0, 1, "update")
        s.record(1, 0, "release")
        s.record(0, 1, "probe")     # belongs to the (1, 0) direction
        assert s.directional_cost(0, 1) == 4
        assert s.directional_cost(1, 0) == 1

    def test_snapshot_is_deep(self):
        s = MessageStats()
        s.record(0, 1, "probe")
        snap = s.snapshot()
        s.record(0, 1, "probe")
        assert snap[(0, 1)]["probe"] == 1

    def test_diff_total(self):
        a, b = MessageStats(), MessageStats()
        b.record(0, 1, "x")
        b.record(0, 1, "x")
        assert b.diff_total(a) == 2

    def test_reset(self):
        s = MessageStats()
        s.record(0, 1, "probe")
        s.reset()
        assert s.total == 0 and not list(s.edges())


class TestTraceLog:
    def test_disabled_log_records_nothing(self):
        t = TraceLog(enabled=False)
        t.emit(0.0, "send", 1, foo="bar")
        assert len(t) == 0

    def test_filtering(self):
        t = TraceLog()
        t.emit(0.0, "send", 1)
        t.emit(1.0, "recv", 2)
        t.emit(2.0, "send", 2)
        assert len(t.events(kind="send")) == 2
        assert len(t.events(node=2)) == 2
        assert len(t.events(kind="send", node=2)) == 1
        assert t.count("recv") == 1

    def test_predicate_filter(self):
        t = TraceLog()
        t.emit(0.0, "send", 1, size=5)
        t.emit(0.0, "send", 1, size=9)
        big = t.events(predicate=lambda e: e.detail.get("size", 0) > 6)
        assert len(big) == 1

    def test_mark_and_since(self):
        t = TraceLog()
        t.emit(0.0, "a", 0)
        m = t.mark()
        t.emit(1.0, "b", 0)
        assert [e.kind for e in t.since(m)] == ["b"]

    def test_iteration_and_indexing(self):
        t = TraceLog()
        t.emit(0.0, "a", 0)
        t.emit(1.0, "b", 1)
        assert [e.kind for e in t] == ["a", "b"]
        assert t[1].node == 1

    def test_clear(self):
        t = TraceLog()
        t.emit(0.0, "a", 0)
        t.clear()
        assert len(t) == 0


class TestSynchronousNetwork:
    def test_rejects_non_edge(self):
        net = SynchronousNetwork(path_tree(3), receiver=lambda *a: None)
        with pytest.raises(ValueError, match="not a tree edge"):
            net.send(0, 2, "x")

    def test_runs_to_quiescence_with_chained_sends(self):
        tree = path_tree(3)
        delivered = []

        def receiver(src, dst, msg):
            delivered.append((src, dst, msg))
            if msg == "fwd" and dst == 1:
                net.send(1, 2, "done")

        net = SynchronousNetwork(tree, receiver=receiver)
        net.send(0, 1, "fwd")
        n = net.run_to_quiescence()
        assert n == 2
        assert delivered == [(0, 1, "fwd"), (1, 2, "done")]
        assert net.is_quiescent()

    def test_livelock_guard(self):
        tree = path_tree(2)

        def receiver(src, dst, msg):
            net.send(dst, src, msg)  # ping-pong forever

        net = SynchronousNetwork(tree, receiver=receiver)
        net.send(0, 1, "ping")
        with pytest.raises(RuntimeError, match="livelock"):
            net.run_to_quiescence(max_messages=50)


class TestNetwork:
    """The wire as a whole, under its default, faultless plan."""

    def test_rejects_non_edge(self):
        sim = Simulator()
        net = FaultyNetwork(path_tree(3), sim, receiver=lambda *a: None)
        with pytest.raises(ValueError, match="not a tree edge"):
            net.send(0, 2, "x")

    def test_counts_and_delivers(self):
        sim = Simulator()
        got = []
        net = edge_01(sim, got)
        net.send(0, 1, "hello")
        assert net.in_flight() == 1
        sim.run()
        assert got == ["hello"]
        assert net.stats.total == 1
        assert net.is_quiescent()

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = Simulator()
            got = []
            net = FaultyNetwork(
                path_tree(4), sim,
                receiver=lambda s, d, m: got.append((sim.now, m)),
                latency=uniform_latency(0.1, 2.0), seed=seed,
            )
            for i in range(5):
                net.send(0, 1, i)
                net.send(2, 3, i)
            sim.run()
            return got

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestTimer:
    """The cancellable/restartable timer used by retransmission logic."""

    def test_fires_once(self):
        from repro.sim import Timer

        sim = Simulator()
        fired = []
        t = Timer(sim)
        t.start(2.0, lambda: fired.append(sim.now))
        assert t.active and t.deadline == 2.0
        sim.run()
        assert fired == [2.0]
        assert not t.active and t.deadline is None

    def test_cancel_prevents_firing(self):
        from repro.sim import Timer

        sim = Simulator()
        fired = []
        t = Timer(sim)
        t.start(2.0, lambda: fired.append("boom"))
        t.cancel()
        assert not t.active
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent_and_safe_when_inactive(self):
        from repro.sim import Timer

        sim = Simulator()
        t = Timer(sim)
        t.cancel()  # never started
        t.start(1.0, lambda: None)
        t.cancel()
        t.cancel()  # double cancel
        sim.run()
        assert not t.active

    def test_restart_replaces_pending_firing(self):
        from repro.sim import Timer

        sim = Simulator()
        fired = []
        t = Timer(sim)
        t.start(5.0, lambda: fired.append("late"))
        t.start(1.0, lambda: fired.append("early"))  # re-arm cancels the first
        sim.run()
        assert fired == ["early"]

    def test_restart_from_within_action(self):
        """Retransmission pattern: the action re-arms the same timer with
        backoff; each firing schedules exactly one successor."""
        from repro.sim import Timer

        sim = Simulator()
        fired = []
        t = Timer(sim)
        delays = iter([2.0, 4.0, 8.0])

        def fire():
            fired.append(sim.now)
            nxt = next(delays, None)
            if nxt is not None:
                t.start(nxt, fire)

        t.start(1.0, fire)
        sim.run()
        assert fired == [1.0, 3.0, 7.0, 15.0]

    def test_cancelled_timer_does_not_block_quiescence(self):
        from repro.sim import Timer

        sim = Simulator()
        t = Timer(sim)
        t.start(100.0, lambda: None)
        t.cancel()
        assert sim.is_quiescent()
