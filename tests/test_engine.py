"""Tests for the execution engines (sequential and concurrent)."""

from __future__ import annotations

import pytest

from repro import (
    AggregationSystem,
    ConcurrentAggregationSystem,
    ScheduledRequest,
    path_tree,
    random_tree,
    two_node_tree,
)
from repro.sim.channel import constant_latency, uniform_latency
from repro.sim.reliability import ReliabilityConfig
from repro.sim.transport import TransportConfig
from repro.workloads import Request, combine, uniform_workload, write
from repro.workloads.requests import copy_sequence


class TestSequentialEngine:
    def test_execute_fills_retval_and_index(self):
        system = AggregationSystem(path_tree(3))
        w = system.execute(write(1, 4.0))
        c = system.execute(combine(0))
        assert w.index == 0
        assert c.retval == 4.0 and c.index == 0  # indexes are per node

    def test_indices_monotone_per_node(self):
        system = AggregationSystem(path_tree(2))
        qs = [system.execute(q) for q in (write(0, 1.0), combine(0), write(0, 2.0))]
        assert [q.index for q in qs] == [0, 1, 2]

    def test_rejects_gather_op(self):
        system = AggregationSystem(path_tree(2))
        with pytest.raises(ValueError):
            system.execute(Request(node=0, op="gather"))

    def test_result_snapshot(self):
        system = AggregationSystem(path_tree(3))
        wl = [write(0, 1.0), combine(2)]
        result = system.run(copy_sequence(wl))
        assert len(result.requests) == 2
        assert result.total_messages == result.stats.total
        assert result.combine_results() == [1.0]
        assert result.tree.n == 3

    def test_ghost_logs_accessor(self):
        system = AggregationSystem(path_tree(2), ghost=True)
        result = system.run([write(0, 1.0)])
        assert set(result.ghost_logs()) == {0, 1}
        no_ghost = AggregationSystem(path_tree(2)).run([write(0, 1.0)])
        assert no_ghost.ghost_logs() == {}

    def test_lease_graph_edges(self):
        system = AggregationSystem(path_tree(3))
        assert system.lease_graph_edges() == []
        system.execute(combine(0))
        assert sorted(system.lease_graph_edges()) == [(1, 0), (2, 1)]

    def test_incremental_execute_matches_run(self):
        tree = random_tree(6, 1)
        wl = uniform_workload(tree.n, 30, read_ratio=0.5, seed=5)
        s1 = AggregationSystem(tree)
        s1.run(copy_sequence(wl))
        s2 = AggregationSystem(tree)
        for q in copy_sequence(wl):
            s2.execute(q)
        assert s1.stats.total == s2.stats.total

    def test_trace_disabled_by_default(self):
        system = AggregationSystem(path_tree(3))
        system.execute(combine(0))
        assert len(system.trace) == 0

    def test_trace_records_when_enabled(self):
        system = AggregationSystem(path_tree(3), trace_enabled=True)
        system.execute(combine(0))
        assert system.trace.count("send") == 4  # 2 probes + 2 responses
        assert system.trace.count("combine_done") == 1


class TestConcurrentEngine:
    def test_serial_schedule_matches_sequential(self):
        """With huge gaps between requests the concurrent engine reduces to
        the sequential one: same messages, same answers."""
        tree = random_tree(6, 9)
        wl = uniform_workload(tree.n, 40, read_ratio=0.5, seed=11)
        seq = AggregationSystem(tree).run(copy_sequence(wl))
        sched = [
            ScheduledRequest(time=1000.0 * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ]
        conc = ConcurrentAggregationSystem(
            tree, latency=constant_latency(1.0), ghost=False
        ).run(sched)
        assert conc.total_messages == seq.total_messages
        assert conc.combine_results() == seq.combine_results()

    def test_timestamps_monotone(self):
        tree = path_tree(4)
        wl = uniform_workload(tree.n, 20, read_ratio=0.5, seed=2)
        sched = [ScheduledRequest(time=float(i), request=q) for i, q in enumerate(copy_sequence(wl))]
        result = ConcurrentAggregationSystem(tree, ghost=False).run(sched)
        for q in result.requests:
            assert q.completed_at >= q.initiated_at

    def test_overlapping_combines_at_same_node(self):
        tree = path_tree(3)
        sched = [
            ScheduledRequest(time=0.0, request=combine(0)),
            ScheduledRequest(time=0.1, request=combine(0)),  # joins the round
        ]
        result = ConcurrentAggregationSystem(
            tree, latency=constant_latency(5.0), ghost=False
        ).run(sched)
        combines = [q for q in result.requests if q.op == "combine"]
        assert len(combines) == 2
        assert all(q.retval == 0.0 for q in combines)
        # The joined round sends a single set of probes.
        assert result.stats.by_kind()["probe"] == 2

    def test_write_during_probe_round(self):
        tree = path_tree(3)
        sched = [
            ScheduledRequest(time=0.0, request=combine(0)),
            ScheduledRequest(time=0.5, request=write(0, 9.0)),  # lands mid-round
        ]
        result = ConcurrentAggregationSystem(
            tree, latency=constant_latency(1.0), ghost=False
        ).run(sched)
        # The combine's answer reflects some causally consistent state; the
        # run must simply complete and drain.
        assert result.requests[0].retval is not None

    def test_scheduled_request_ordering(self):
        a = ScheduledRequest(time=2.0, request=combine(0))
        b = ScheduledRequest(time=1.0, request=combine(1))
        assert sorted([a, b])[0] is b

    def test_rejects_gather(self):
        tree = path_tree(2)
        sched = [ScheduledRequest(time=0.0, request=Request(node=0, op="gather"))]
        with pytest.raises(ValueError):
            ConcurrentAggregationSystem(tree, ghost=False).run(sched)

    def test_latency_or_reliability_beside_transport_is_refused(self):
        """``transport=`` describes the whole stack.  A ``latency=`` or
        ``reliability=`` passed beside it used to be dropped silently: a
        5-unit-latency combine across a 3-node path completed at t=4.0,
        with no reliable layer."""
        latency = constant_latency(5.0)
        reliability = ReliabilityConfig(combine_deadline=100.0)
        for extra in ({"latency": latency}, {"reliability": reliability},
                      {"latency": latency, "reliability": reliability}):
            with pytest.raises(ValueError, match="conflict with transport="):
                ConcurrentAggregationSystem(
                    path_tree(3), transport=TransportConfig.simulated(), **extra
                )
        system = ConcurrentAggregationSystem(
            path_tree(3),
            transport=TransportConfig.simulated(latency=latency, reliability=reliability),
        )
        result = system.run([ScheduledRequest(time=0.0, request=combine(0))])
        assert result.requests[0].completed_at == 20.0  # two hops out, two back
        assert system.reliability is reliability

    def test_deterministic_given_seeds(self):
        tree = random_tree(7, 2)
        wl = uniform_workload(tree.n, 50, read_ratio=0.5, seed=4)

        def run():
            sched = [
                ScheduledRequest(time=0.7 * i, request=q)
                for i, q in enumerate(copy_sequence(wl))
            ]
            sys_ = ConcurrentAggregationSystem(
                tree, latency=uniform_latency(0.1, 2.0), seed=5, ghost=False
            )
            res = sys_.run(sched)
            return res.total_messages, res.combine_results()

        assert run() == run()
