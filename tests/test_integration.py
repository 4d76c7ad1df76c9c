"""End-to-end integration tests spanning the whole stack."""

from __future__ import annotations

import pytest

from repro import (
    AVERAGE,
    COUNT,
    MAX,
    MIN,
    AggregationSystem,
    ConcurrentAggregationSystem,
    ScheduledRequest,
    balanced_kary_tree,
    binary_tree,
    caterpillar_tree,
    path_tree,
    random_tree,
)
from repro.analysis import competitive_ratio
from repro.baselines import StaticLeaseBaseline, astrolabe_config, mds_config
from repro.consistency import check_causal_consistency, check_strict_consistency
from repro.offline.edge_dp import rww_analytic_cost
from repro.workloads import alternating_phases, combine, uniform_workload, write
from repro.workloads.phases import migrating_hotspot
from repro.workloads.requests import copy_sequence


class TestLargerTrees:
    def test_63_node_binary_tree(self):
        tree = binary_tree(5)
        assert tree.n == 63
        wl = uniform_workload(tree.n, 300, read_ratio=0.5, seed=1)
        system = AggregationSystem(tree)
        result = system.run(copy_sequence(wl))
        system.check_quiescent_invariants()
        assert check_strict_consistency(result.requests, tree.n) == []
        assert result.total_messages == rww_analytic_cost(tree, wl)

    def test_long_path(self):
        tree = path_tree(40)
        wl = uniform_workload(tree.n, 200, read_ratio=0.5, seed=2)
        result = AggregationSystem(tree).run(copy_sequence(wl))
        assert check_strict_consistency(result.requests, tree.n) == []

    def test_wide_kary(self):
        tree = balanced_kary_tree(4, 3)  # 85 nodes
        wl = uniform_workload(tree.n, 150, read_ratio=0.5, seed=3)
        result = AggregationSystem(tree).run(copy_sequence(wl))
        assert check_strict_consistency(result.requests, tree.n) == []


class TestMonitoringScenario:
    """A cluster-monitoring sketch: load average + max + alive count."""

    def test_multi_metric_views(self):
        tree = caterpillar_tree(5, 3)  # 20 machines
        rng_vals = [float(i * 3 % 17) for i in range(tree.n)]
        writes = [write(i, v) for i, v in enumerate(rng_vals)]

        for op, expect in [
            (MAX, max(rng_vals)),
            (MIN, min(rng_vals)),
            (COUNT, tree.n),
        ]:
            system = AggregationSystem(tree, op=op)
            for q in copy_sequence(writes):
                system.execute(q)
            assert system.execute(combine(0)).retval == expect

        system = AggregationSystem(tree, op=AVERAGE)
        for q in copy_sequence(writes):
            system.execute(q)
        retval = system.execute(combine(0)).retval
        assert AVERAGE.finalize(retval) == pytest.approx(sum(rng_vals) / tree.n)

    def test_phase_shift_adaptivity(self):
        """RWW adapts across phase shifts: it beats both static extremes on
        an alternating read-heavy/write-heavy workload."""
        tree = binary_tree(3)
        wl = alternating_phases(tree.n, n_phases=6, phase_length=120, seed=4)
        rww = AggregationSystem(tree).run(copy_sequence(wl)).total_messages
        astro = StaticLeaseBaseline(tree, astrolabe_config(tree)).run(
            copy_sequence(wl)
        ).total_messages
        mds = StaticLeaseBaseline(tree, mds_config(tree)).run(
            copy_sequence(wl)
        ).total_messages
        assert rww < astro
        assert rww < mds

    def test_migrating_hotspot_stays_competitive(self):
        tree = random_tree(12, 9)
        wl = migrating_hotspot(tree.n, n_phases=5, phase_length=80, seed=11)
        report = competitive_ratio(tree, wl)
        assert report.ratio_vs_opt <= 2.5 + 1e-9


class TestSequentialVsConcurrentAgreement:
    def test_quiet_concurrent_run_is_strict(self):
        """When requests never overlap, the concurrent engine satisfies
        strict consistency too (sequential executions are a special case of
        concurrent ones)."""
        tree = random_tree(7, 13)
        wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=5)
        sched = [
            ScheduledRequest(time=100.0 * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ]
        result = ConcurrentAggregationSystem(tree, ghost=True).run(sched)
        assert check_strict_consistency(result.requests, tree.n) == []
        assert check_causal_consistency(result.ghost_logs(), result.requests, tree.n) == []


class TestCostAccountingCrossCheck:
    @pytest.mark.parametrize("seed", range(3))
    def test_stats_vs_trace_counts(self, seed):
        tree = random_tree(8, seed + 40)
        wl = uniform_workload(tree.n, 80, read_ratio=0.5, seed=seed)
        system = AggregationSystem(tree, trace_enabled=True)
        result = system.run(copy_sequence(wl))
        assert system.trace.count("send") == result.total_messages
        assert system.trace.count("recv") == result.total_messages
