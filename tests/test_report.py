"""Tests for the ASCII reporting module."""

from __future__ import annotations

from repro import AggregationSystem, binary_tree, combine, path_tree, star_tree, write
from repro.report import busiest_edges, render_lease_graph, render_tree, summarize_run


class TestRenderTree:
    def test_single_node(self):
        from repro.tree import Tree

        assert render_tree(Tree(1, [])) == "[0]"

    def test_all_nodes_present(self):
        tree = binary_tree(2)
        art = render_tree(tree)
        for u in tree.nodes():
            assert f"[{u}]" in art

    def test_labels(self):
        art = render_tree(path_tree(2), labels={1: "leaf"})
        assert "[1] leaf" in art

    def test_lease_marks(self):
        tree = path_tree(3)
        # 1 pushes to 0 (toward parent), 1 pushes to 2 (toward child).
        art = render_tree(tree, root=0, granted=[(1, 0), (1, 2)])
        assert "^-[1]" in art  # child 1 pushes up
        assert "v-[2]" in art  # parent 1 pushes down to 2

    def test_bidirectional_mark(self):
        art = render_tree(path_tree(2), granted=[(0, 1), (1, 0)])
        assert "=-[1]" in art

    def test_no_lease_mark(self):
        art = render_tree(path_tree(2))
        assert "--[1]" in art

    def test_rooting_changes_layout(self):
        tree = path_tree(3)
        assert render_tree(tree, root=0) != render_tree(tree, root=2)


class TestRenderLeaseGraph:
    def test_leases_point_toward_reader(self):
        system = AggregationSystem(binary_tree(2))
        system.execute(combine(3))
        art = render_lease_graph(system, root=0)
        # Node 3's parent pushes down to it; everyone else pushes up.
        assert "v-[3]" in art or "v-[1]" in art
        assert "^-[2]" in art


class TestSummarize:
    def _result(self):
        system = AggregationSystem(path_tree(4), trace_enabled=True)
        system.execute(write(3, 5.0))
        system.execute(combine(0))
        system.execute(combine(0))
        return system.result()

    def test_summary_contents(self):
        text = summarize_run(self._result(), title="demo")
        assert "demo" in text
        assert "4 nodes" in text
        assert "2 combines, 1 writes" in text
        assert "probe" in text and "response" in text
        assert "last combine @ node 0: 5.0" in text

    def test_summary_counts_messages(self):
        result = self._result()
        text = summarize_run(result)
        assert f"messages:  {result.total_messages}" in text

    def test_lease_churn_reported_when_traced(self):
        text = summarize_run(self._result())
        assert "lease churn" in text

    def test_empty_run(self):
        system = AggregationSystem(path_tree(2))
        text = summarize_run(system.result())
        assert "requests:  0" in text

    def test_no_recovery_section_on_clean_runs(self):
        text = summarize_run(self._result())
        assert "recovery" not in text
        assert "FAILED" not in text

    def test_recovery_overhead_and_failures_reported(self):
        from repro import ReliabilityConfig, ScheduledRequest
        from repro.sim.channel import constant_latency
        from repro.sim.faults import FaultPlan
        from repro.core.engine import reliable_concurrent_system

        system = reliable_concurrent_system(
            path_tree(3),
            FaultPlan(drop_prob=1.0),  # permanent blackout -> give-up + watchdog
            config=ReliabilityConfig(
                base_timeout=1.0, max_timeout=2.0, max_retries=2,
                combine_deadline=50.0,
            ),
            latency=constant_latency(1.0),
        )
        result = system.run([ScheduledRequest(time=0.0, request=combine(0))])
        text = summarize_run(result)
        assert "recovery" in text
        assert "retransmit" in text
        assert "FAILED:    1 request(s)" in text


class TestBusiestEdges:
    def test_ranking(self):
        system = AggregationSystem(star_tree(4))
        system.execute(combine(1))  # pulls across all edges
        system.execute(write(2, 1.0))  # pushes along (2, 0) and (0, 1)
        ranked = busiest_edges(system.result(), top=2)
        assert len(ranked) == 2
        assert ranked[0][1] >= ranked[1][1]

    def test_top_clamps(self):
        system = AggregationSystem(path_tree(3))
        system.execute(combine(0))
        assert len(busiest_edges(system.result(), top=99)) == 2
