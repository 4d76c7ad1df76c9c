"""Engine-combination matrix over the composable transport stack.

Every engine is a thin driver over :class:`~repro.core.runtime.NodeRuntime`,
and every transport stack comes out of one
:func:`~repro.sim.transport.build_transport` factory — so any engine must
run over any stack and compute the same answers.  These tests pin that
contract: the same golden workload through sequential/concurrent ×
{plain, faulty, reliable} transports yields identical combine results, and
every cell ends in a state satisfying Lemma 3.1 (lease symmetry:
``u.taken[v] == v.granted[u]`` on every edge).

Cell notes
----------
* **plain** — the latency-ful FIFO wire,
  :class:`~repro.sim.faults.FaultyNetwork` under a faultless plan.
* **faulty** — :class:`~repro.sim.faults.FaultyNetwork` with reorder draws
  under *constant* latency: the fault layer genuinely fires (the fault log
  records reorders) but bypassing the FIFO clamp cannot change delivery
  order when every message takes the same time, so results stay exact.
* **reliable** — real message loss (20% drops) healed by the
  retransmission layer; identical results demonstrate the restored
  reliable-FIFO contract end-to-end.

The trailing tests exercise the combinations the unified runtime newly
enables: the multi-attribute layer over concurrent-model (simulated)
transports, and dynamic attach/detach over a lossy-but-healed stack.
"""

from __future__ import annotations

import pytest

from repro import (
    AggregationSystem,
    ConcurrentAggregationSystem,
    ScheduledRequest,
    random_tree,
)
from repro.consistency import check_strict_consistency
from repro.sim.channel import constant_latency
from repro.sim.faults import FaultPlan, FaultyNetwork
from repro.sim.reliability import ReliabilityConfig, ReliableNetwork
from repro.sim.transport import TransportConfig
from repro.workloads import combine, uniform_workload, write
from repro.workloads.requests import copy_sequence

TREE = random_tree(8, 11)
WORKLOAD = uniform_workload(TREE.n, 60, read_ratio=0.5, seed=13)

TRANSPORTS = {
    "plain": lambda: TransportConfig.simulated(latency=constant_latency(1.0)),
    "faulty": lambda: TransportConfig.simulated(
        latency=constant_latency(1.0),
        plan=FaultPlan(reorder_prob=0.3, seed=5),
    ),
    "reliable": lambda: TransportConfig.simulated(
        latency=constant_latency(1.0),
        plan=FaultPlan(drop_prob=0.2, seed=5),
        reliability=ReliabilityConfig(),
    ),
}


def golden_results():
    """Reference combine results: sequential engine, synchronous queue."""
    system = AggregationSystem(TREE)
    result = system.run(copy_sequence(WORKLOAD))
    return result.combine_results()


GOLDEN = golden_results()


def assert_lemma_31(system) -> None:
    """Lemma 3.1: taken/granted symmetry on every edge at quiescence."""
    for u, v in system.tree.directed_edges():
        assert system.nodes[u].taken[v] == system.nodes[v].granted[u], (
            f"Lemma 3.1 violated on edge ({u}, {v})"
        )


class TestEngineTransportMatrix:
    @pytest.mark.parametrize("transport_name", sorted(TRANSPORTS))
    def test_sequential_engine(self, transport_name):
        system = AggregationSystem(TREE, transport=TRANSPORTS[transport_name](), seed=2)
        result = system.run(copy_sequence(WORKLOAD))
        assert result.combine_results() == GOLDEN
        assert check_strict_consistency(result.requests, TREE.n) == []
        assert_lemma_31(system)
        system.check_quiescent_invariants()

    @pytest.mark.parametrize("transport_name", sorted(TRANSPORTS))
    def test_concurrent_engine(self, transport_name):
        system = ConcurrentAggregationSystem(
            TREE, transport=TRANSPORTS[transport_name](), seed=2, ghost=False
        )
        schedule = [
            ScheduledRequest(time=200.0 * i, request=q)
            for i, q in enumerate(copy_sequence(WORKLOAD))
        ]
        result = system.run(schedule)
        assert result.combine_results() == GOLDEN
        assert check_strict_consistency(result.requests, TREE.n) == []
        assert_lemma_31(system)
        system.check_quiescent_invariants()

    def test_fault_layer_actually_fired(self):
        """The faulty cell is not vacuous: reorder draws are recorded."""
        system = AggregationSystem(TREE, transport=TRANSPORTS["faulty"](), seed=2)
        system.run(copy_sequence(WORKLOAD))
        assert isinstance(system.network, FaultyNetwork)
        assert system.network.faults.count("reorder") > 0

    def test_reliable_layer_actually_healed(self):
        """The reliable cell is not vacuous: drops occurred and were
        retransmitted around."""
        system = AggregationSystem(TREE, transport=TRANSPORTS["reliable"](), seed=2)
        system.run(copy_sequence(WORKLOAD))
        assert isinstance(system.network, ReliableNetwork)
        assert system.network.inner.faults.count("drop") > 0
        assert system.network.summary.retransmits > 0
        assert system.network.summary.give_ups == 0


class TestBackendMatrix:
    """The backend axis: the same golden workload through both execution
    backends (reference object-graph runtime vs. flat vectorized engine)
    over the synchronous queue must agree with GOLDEN exactly."""

    @pytest.mark.parametrize("backend", ["reference", "flat"])
    def test_sequential_engine_backends(self, backend):
        system = AggregationSystem(TREE, backend=backend, seed=2)
        result = system.run(copy_sequence(WORKLOAD))
        assert system.backend_name == backend
        assert result.combine_results() == GOLDEN
        assert check_strict_consistency(result.requests, TREE.n) == []
        assert_lemma_31(system)
        system.check_quiescent_invariants()

    def test_backends_agree_on_full_accounting(self):
        ref = AggregationSystem(TREE, seed=2)
        flat = AggregationSystem(TREE, backend="flat", seed=2)
        r1 = ref.run(copy_sequence(WORKLOAD))
        r2 = flat.run(copy_sequence(WORKLOAD))
        assert r1.total_messages == r2.total_messages
        assert r1.stats.by_kind() == r2.stats.by_kind()
        assert r1.stats.snapshot() == r2.stats.snapshot()
        assert sorted(ref.lease_graph_edges()) == sorted(flat.lease_graph_edges())

    def test_flat_rejects_simulated_transport(self):
        from repro.core.backend import BackendUnsupported

        with pytest.raises(BackendUnsupported):
            AggregationSystem(
                TREE, transport=TRANSPORTS["plain"](), backend="flat"
            )


class TestNewlyEnabledCombinations:
    def test_multiattribute_over_simulated_transport(self):
        """The batching layer rides any stack, not just the synchronous
        queue — one lossy-but-healed engine per attribute."""
        from repro.core.multiattr import MultiAttributeSystem
        from repro.ops.standard import MAX, SUM

        system = MultiAttributeSystem(
            TREE,
            {"load": SUM, "peak": MAX},
            transport=TRANSPORTS["reliable"](),
            seed=7,
        )
        system.write_many(3, {"load": 2.0, "peak": 5.0})
        system.write_many(6, {"load": 1.0, "peak": 3.0})
        report = system.query(0)
        assert report.values["load"] == 3.0
        assert report.values["peak"] == 5.0
        assert report.batched_messages <= report.unbatched_messages
        system.check_invariants()
        for sub in system.systems.values():
            assert isinstance(sub.network, ReliableNetwork)

    def test_dynamic_attach_detach_under_faults(self):
        """Leaf churn over a lossy wire healed by the reliability layer:
        revocation cascades and re-leasing survive 20% message loss."""
        from repro.core.dynamic import DynamicAggregationSystem

        system = DynamicAggregationSystem(
            random_tree(5, 3), transport=TRANSPORTS["reliable"](), seed=9
        )
        assert isinstance(system.network, ReliableNetwork)
        system.execute(write(1, 4.0))
        assert system.execute(combine(0)).retval == 4.0
        new_id = system.add_leaf(2)
        system.execute(write(new_id, 6.0))
        assert system.execute(combine(0)).retval == 10.0
        remap = system.remove_leaf(new_id)
        moved = remap.get(new_id, None)
        assert system.execute(combine(0)).retval == 4.0
        system.check_quiescent_invariants()
        assert_lemma_31(system)
        assert system.network.inner.faults.count("drop") > 0
        assert system.network.summary.give_ups == 0
        assert moved is None or moved in system.live_nodes

    def test_crash_and_recover_on_the_plain_simulated_stack(self):
        """The plain stack's wire is FaultyNetwork, which has crash_node:
        traffic into a crashed node dies as a declared loss, and recovery
        reconciles the node's leases."""
        system = AggregationSystem(
            TREE, transport=TRANSPORTS["plain"](), seed=2, trace_enabled=True
        )
        assert isinstance(system.network, FaultyNetwork)
        system.execute(write(3, 4.0))
        system.execute(combine(0))
        system.execute(combine(0))
        assert (3, 2) in system.lease_graph_edges()
        system.runtime.crash(2)
        system.execute(write(5, 1.0))  # its update to 3 is relayed to 2
        assert system.runtime.trace.count("delivery_failed") == 1
        system.runtime.recover(2)
        system.runtime.drain()
        assert system.execute(combine(0)).retval == 5.0
        system.check_quiescent_invariants()
        assert_lemma_31(system)
