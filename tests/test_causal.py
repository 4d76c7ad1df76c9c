"""Causal consistency (Section 5, Theorem 4) for concurrent executions."""

from __future__ import annotations

import random

import pytest

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
)
from repro.consistency import check_causal_consistency
from repro.consistency.causal import causal_order_edges
from repro.core.ghost import GhostLog, extend_with_missing_writes
from repro.sim.channel import exponential_latency, uniform_latency
from repro.workloads import Request, combine, uniform_workload, write
from repro.workloads.requests import GATHER, copy_sequence


def poisson_schedule(workload, seed, rate=1.0):
    rng = random.Random(seed)
    t, out = 0.0, []
    for q in copy_sequence(workload):
        t += rng.expovariate(rate)
        out.append(ScheduledRequest(time=t, request=q))
    return out


def run_concurrent(tree, workload, seed=0, policy=RWWPolicy, latency=None):
    system = ConcurrentAggregationSystem(
        tree,
        policy_factory=policy,
        latency=latency if latency is not None else uniform_latency(0.5, 3.0),
        seed=seed,
        ghost=True,
    )
    return system.run(poisson_schedule(workload, seed + 1))


class TestTheorem4:
    @pytest.mark.parametrize("seed", range(6))
    def test_rww_concurrent_runs_causally_consistent(self, seed):
        tree = random_tree(7, seed)
        wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=seed + 50)
        result = run_concurrent(tree, wl, seed=seed)
        violations = check_causal_consistency(result.ghost_logs(), result.requests, tree.n)
        assert violations == []

    @pytest.mark.parametrize("policy", [RWWPolicy, AlwaysLeasePolicy, NeverLeasePolicy],
                             ids=["rww", "always", "never"])
    def test_any_lease_policy_causally_consistent(self, policy):
        tree = path_tree(5)
        wl = uniform_workload(tree.n, 50, read_ratio=0.5, seed=9)
        result = run_concurrent(tree, wl, seed=4, policy=policy)
        assert check_causal_consistency(result.ghost_logs(), result.requests, tree.n) == []

    def test_heavy_latency_skew(self):
        tree = star_tree(6)
        wl = uniform_workload(tree.n, 60, read_ratio=0.4, seed=3)
        result = run_concurrent(tree, wl, seed=8, latency=exponential_latency(5.0))
        assert check_causal_consistency(result.ghost_logs(), result.requests, tree.n) == []

    def test_sequential_ghost_run_also_consistent(self):
        tree = random_tree(6, 2)
        wl = uniform_workload(tree.n, 40, read_ratio=0.5, seed=1)
        system = AggregationSystem(tree, ghost=True)
        result = system.run(copy_sequence(wl))
        assert check_causal_consistency(result.ghost_logs(), result.requests, tree.n) == []

    def test_all_combines_complete(self):
        tree = random_tree(9, 5)
        wl = uniform_workload(tree.n, 80, read_ratio=0.6, seed=6)
        result = run_concurrent(tree, wl, seed=12)
        for q in result.requests:
            if q.op == "combine":
                assert q.retval is not None
                assert q.completed_at >= q.initiated_at


class TestGhostMachinery:
    def test_ghost_does_not_change_messages(self):
        tree = random_tree(7, 4)
        wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=5)
        plain = AggregationSystem(tree, ghost=False).run(copy_sequence(wl))
        ghosted = AggregationSystem(tree, ghost=True).run(copy_sequence(wl))
        assert plain.total_messages == ghosted.total_messages
        assert plain.stats.by_kind() == ghosted.stats.by_kind()

    def test_ghost_log_contains_all_local_writes(self):
        tree = path_tree(3)
        system = AggregationSystem(tree, ghost=True)
        system.execute(write(0, 1.0))
        system.execute(write(0, 2.0))
        log = system.nodes[0].ghost
        assert len(log.wlog) == 2
        assert log.contains_write(0, 0) and log.contains_write(0, 1)

    def test_ghost_log_merge_via_response(self):
        tree = path_tree(3)
        system = AggregationSystem(tree, ghost=True)
        system.execute(write(2, 7.0))
        system.execute(combine(0))  # pull propagates wlog to node 0
        assert system.nodes[0].ghost.contains_write(2, 0)

    def test_ghost_log_merge_via_update(self):
        tree = path_tree(3)
        system = AggregationSystem(tree, ghost=True)
        system.execute(combine(0))  # establish leases
        system.execute(write(2, 7.0))  # pushed along leases with wlog
        assert system.nodes[0].ghost.contains_write(2, 0)

    def test_gather_recentwrites_reflects_knowledge(self):
        tree = path_tree(3)
        system = AggregationSystem(tree, ghost=True)
        system.execute(write(2, 7.0))
        system.execute(combine(0))
        gathers = [q for q in system.nodes[0].ghost.log if q.op == GATHER]
        assert gathers[-1].retval == {0: -1, 1: -1, 2: 0}

    def test_duplicate_write_append_rejected(self):
        g = GhostLog(2)
        q = write(0, 1.0)
        q.index = 0
        g.append_write(q)
        with pytest.raises(ValueError, match="duplicate"):
            g.append_write(q)

    def test_append_write_rejects_non_write(self):
        g = GhostLog(2)
        with pytest.raises(ValueError):
            g.append_write(combine(0))

    def test_merge_idempotent(self):
        g = GhostLog(3)
        q = write(1, 3.0)
        q.index = 0
        assert g.merge(1, [q]) == 1
        assert g.merge(1, [q]) == 0
        # The same write relayed by another neighbor is not appended again.
        assert g.merge(2, [q]) == 0
        assert len(g.wlog) == 1

    def test_extend_with_missing_writes_dedupes(self):
        q1, q2 = write(0, 1.0), write(1, 2.0)
        q1.index, q2.index = 0, 0
        merged = extend_with_missing_writes([q1], [[q1, q2]])
        assert merged == [q1, q2]


class TestCheckerDetectsViolations:
    def _consistent_fixture(self):
        tree = path_tree(3)
        wl = [write(0, 1.0), combine(2), write(2, 5.0), combine(0)]
        system = AggregationSystem(tree, ghost=True)
        result = system.run(copy_sequence(wl))
        return tree, result

    def test_clean_run_passes(self):
        tree, result = self._consistent_fixture()
        assert check_causal_consistency(result.ghost_logs(), result.requests, tree.n) == []

    def test_corrupted_gather_retval_detected(self):
        tree, result = self._consistent_fixture()
        logs = result.ghost_logs()
        for g in logs.values():
            for q in g.log:
                if q.op == GATHER:
                    q.retval = dict(q.retval)
                    q.retval[0] = -1  # pretend the write was never seen
                    break
            else:
                continue
            break
        violations = check_causal_consistency(logs, result.requests, tree.n)
        assert any(v.kind in ("serialization", "compatibility") for v in violations)

    def test_corrupted_combine_retval_detected(self):
        tree, result = self._consistent_fixture()
        for q in result.requests:
            if q.op == "combine":
                q.retval = -999.0
                break
        violations = check_causal_consistency(result.ghost_logs(), result.requests, tree.n)
        assert any(v.kind == "compatibility" for v in violations)

    def test_reordered_serialization_detected(self):
        tree, result = self._consistent_fixture()
        logs = result.ghost_logs()
        # Swap two entries in one node's log to break program order.
        target = None
        for g in logs.values():
            if len(g.log) >= 2:
                target = g
                break
        target.log[0], target.log[-1] = target.log[-1], target.log[0]
        violations = check_causal_consistency(logs, result.requests, tree.n)
        assert violations  # some check must fire

    def test_causal_edges_structure(self):
        w = write(0, 1.0)
        w.index = 0
        g = Request(node=1, op=GATHER, retval={0: 0, 1: -1}, index=0)
        g2 = Request(node=1, op=GATHER, retval={0: 0, 1: -1}, index=1)
        edges = causal_order_edges([w, g, g2])
        assert ((0, 0), (1, 0)) in edges  # reads-from
        assert ((1, 0), (1, 1)) in edges  # program order

    def test_causal_edges_reject_combine(self):
        with pytest.raises(ValueError):
            causal_order_edges([combine(0)])
