"""Tests for the unified telemetry layer (repro.obs).

Covers the metrics registry semantics, the upgraded TraceLog (ring buffer,
mark/since across eviction, subscribers, strict schemas, emit-time copying),
request spans from both engines, the three live lemma monitors (including
doctored-event violations), reliability-layer trace-event ordering, and
bit-identical JSONL round-trips of sequential and chaos runs.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    AggregationSystem,
    ScheduledRequest,
    binary_tree,
    combine,
    path_tree,
    random_tree,
    write,
)
from repro.core.engine import ConcurrentAggregationSystem
from repro.obs.export import (
    dumps_events,
    export_jsonl,
    import_jsonl,
    is_logical_kind,
    top_edges,
    trace_diff,
    trace_summary,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.monitors import (
    DeliveryContractMonitor,
    LeaseSymmetryMonitor,
    MonitorViolation,
    ProbeFanoutMonitor,
    attach_standard_monitors,
    expected_probe_edges,
)
from repro.obs.spans import RequestSpan, probe_fanout_from_events, span_summary
from repro.sim.channel import constant_latency
from repro.sim.faults import FaultPlan
from repro.core.engine import reliable_concurrent_system
from repro.sim.reliability import ReliabilityConfig
from repro.sim.trace import SchemaError, TraceLog
from repro.workloads import uniform_workload
from repro.workloads.requests import copy_sequence


# ----------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_high_water(self):
        g = Gauge()
        g.set(3)
        g.inc(2)
        g.dec(4)
        assert g.value == 1
        assert g.max == 5

    def test_histogram_buckets_and_stats(self):
        h = Histogram(buckets=(1, 2, 5))
        for v in (0, 1, 2, 3, 100):
            h.observe(v)
        assert h.count == 5
        assert h.counts == [2, 1, 1, 1]  # <=1, <=2, <=5, +inf
        assert h.min == 0 and h.max == 100
        assert h.mean == pytest.approx(106 / 5)
        assert h.quantile(0.5) == 2
        assert h.quantile(1.0) == 100  # +inf bucket reports the tracked max
        with pytest.raises(ValueError):
            Histogram(buckets=(5, 1))

    def test_registry_get_or_create_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("m", src=0, dst=1)
        b = reg.counter("m", dst=1, src=0)  # label order canonicalized
        assert a is b
        a.inc()
        reg.counter("m", src=1, dst=0).inc(2)
        assert reg.counter_total("m") == 3
        assert reg.has("m") and not reg.has("nope")

    def test_snapshot_shape_and_determinism(self):
        reg = MetricsRegistry()
        reg.counter("c", node=1).inc()
        reg.gauge("g", src=0, dst=1).set(2)
        reg.histogram("h").observe(3)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["c"] == [{"labels": {"node": 1}, "value": 1}]
        assert snap["gauges"]["g"][0]["max"] == 2
        # deterministic and JSON-safe
        assert json.dumps(snap, sort_keys=True) == json.dumps(reg.snapshot(), sort_keys=True)


# ---------------------------------------------------------------- TraceLog
class TestTraceLog:
    def test_ring_buffer_and_mark_since_across_eviction(self):
        log = TraceLog(enabled=True, max_events=3)
        for i in range(2):
            log.emit(float(i), "quiescent", -1, i=i)
        mark = log.mark()
        assert mark == 2
        for i in range(2, 6):
            log.emit(float(i), "quiescent", -1, i=i)
        assert len(log) == 3
        assert log.dropped == 3
        assert log.total_emitted == 6
        window = log.since(mark)
        # events 2..5 were appended after the mark; 0..2 got evicted,
        # so only the retained tail comes back.
        assert [ev.detail["i"] for ev in window] == [3, 4, 5]

    @pytest.mark.parametrize("max_events", [None, 4])
    def test_since_every_mark_against_the_retained_window(self, max_events):
        """Event ``i`` is the ``i``-th emitted, so ``since(m)`` is exactly the
        retained events with ``i >= m``: a mark older than the retained
        window returns all of it, one at or past the end returns nothing."""
        log = TraceLog(enabled=True, max_events=max_events)
        marks = [log.mark()]
        for i in range(10):
            log.emit(float(i), "quiescent", -1, i=i)
            marks.append(log.mark())
        retained = [ev.detail["i"] for ev in log]
        assert retained == list(range(10 - len(retained), 10))
        assert len(retained) == (10 if max_events is None else max_events)
        for mark in [-1] + marks + [11]:
            window = [ev.detail["i"] for ev in log.since(mark)]
            assert window == [i for i in retained if i >= mark], mark

    def test_subscribers_fire_and_unsubscribe(self):
        log = TraceLog(enabled=True)
        seen = []
        fn = log.subscribe(lambda ev: seen.append(ev.kind))
        log.emit(0.0, "quiescent", -1)
        log.unsubscribe(fn)
        log.emit(0.0, "quiescent", -1)
        assert seen == ["quiescent"]

    def test_disabled_log_never_fires_subscribers(self):
        log = TraceLog(enabled=False)
        seen = []
        log.subscribe(seen.append)
        log.emit(0.0, "quiescent", -1)
        assert not seen and len(log) == 0

    def test_emit_copies_mutable_detail(self):
        log = TraceLog(enabled=True)
        targets = [1, 2]
        log.emit(0.0, "probe_round", 0, requestor=0, targets=targets)
        targets.append(3)
        assert log[0].detail["targets"] == [1, 2]

    def test_strict_schema_validation(self):
        log = TraceLog(enabled=True, strict=True)
        log.emit(0.0, "send", 0, dst=1, msg="probe")  # valid
        with pytest.raises(SchemaError):
            log.emit(0.0, "no_such_kind", 0)
        with pytest.raises(SchemaError):
            log.emit(0.0, "send", 0, msg="probe")  # missing dst

    def test_every_engine_event_passes_strict_schemas(self):
        system = AggregationSystem(binary_tree(2), trace_enabled=True)
        system.trace.strict = True
        wl = uniform_workload(system.tree.n, 30, read_ratio=0.5, seed=3)
        system.run(copy_sequence(wl))  # SchemaError would propagate

    def test_clear_resets_eviction_counter(self):
        log = TraceLog(enabled=True, max_events=2)
        for i in range(4):
            log.emit(0.0, "quiescent", -1)
        log.clear()
        assert log.dropped == 0 and log.total_emitted == 0


# ------------------------------------------------------------------- spans
class TestSpans:
    def test_sequential_spans_exact_attribution(self):
        tree = binary_tree(2)
        system = AggregationSystem(tree, trace_enabled=True)
        for node in tree.nodes():
            system.execute(write(node, 1.0))
        system.execute(combine(0))
        result = system.result()
        assert len(result.spans) == tree.n + 1
        total_attributed = sum(s.messages for s in result.spans)
        assert total_attributed == result.total_messages  # exact, no overlap
        cold = result.spans[-1]
        assert cold.op == "combine" and not cold.overlapped
        # Cold combine on an all-lease-free tree probes every edge.
        assert len(cold.probe_fanout) == tree.n - 1
        assert cold.value == float(tree.n)

    def test_concurrent_spans_latency_and_overlap_flag(self):
        tree = path_tree(4)
        wl = uniform_workload(tree.n, 20, read_ratio=0.5, seed=1)
        # Serialized schedule: spans must not be overlapped.
        system = ConcurrentAggregationSystem(
            tree, latency=constant_latency(1.0), trace_enabled=True
        )
        result = system.run([
            ScheduledRequest(time=500.0 * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ])
        combines = [s for s in result.spans if s.op == "combine"]
        # Writes complete instantly but their update relays may still be in
        # flight, which flags them overlapped; serialized combines are exact.
        assert combines and all(not s.overlapped for s in combines)
        # Cold combines take round trips; warm ones answer locally in 0 time.
        assert any(s.duration > 0 for s in combines)
        assert all(s.duration >= 0 for s in combines)
        # Burst schedule: everything lands at t=0 and overlaps.
        burst = ConcurrentAggregationSystem(
            tree, latency=constant_latency(1.0), trace_enabled=True
        )
        result2 = burst.run([
            ScheduledRequest(time=0.0, request=q)
            for q in copy_sequence(wl)
        ])
        assert any(s.overlapped for s in result2.spans)

    def test_span_to_dict_omits_unset_fields(self):
        s = RequestSpan(req=0, node=1, op="write", start=0.0, end=0.0, messages=2)
        d = s.to_dict()
        assert "failure" not in d and "overlapped" not in d and "scope" not in d
        s2 = RequestSpan(req=1, node=0, op="combine", start=0.0, end=3.0,
                         messages=4, failure="timeout", overlapped=True)
        d2 = s2.to_dict()
        assert d2["failure"] == "timeout" and d2["overlapped"] is True
        assert not s2.ok and s2.duration == 3.0

    def test_probe_fanout_from_events(self):
        log = TraceLog(enabled=True)
        log.emit(0.0, "send", 0, dst=1, msg="probe")
        log.emit(0.0, "send", 1, dst=2, msg="probe")
        log.emit(0.0, "send", 2, dst=1, msg="response")
        assert probe_fanout_from_events(list(log)) == ((0, 1), (1, 2))

    def test_span_summary_rollup(self):
        spans = [
            RequestSpan(req=0, node=0, op="combine", start=0.0, end=4.0, messages=6),
            RequestSpan(req=1, node=1, op="write", start=5.0, end=5.0, messages=1),
            RequestSpan(req=2, node=0, op="combine", start=6.0, end=7.0,
                        messages=0, failure="hung"),
        ]
        s = span_summary(spans)
        assert s["combines"] == 2 and s["writes"] == 1 and s["failed"] == 1
        assert s["messages_attributed"] == 7
        assert s["max_combine_latency"] == 4.0


# ---------------------------------------------------------------- monitors
class TestMonitors:
    def test_clean_sequential_run_all_monitors_pass(self):
        system = AggregationSystem(binary_tree(3), trace_enabled=True)
        monitors = attach_standard_monitors(system.trace, strict=True)
        wl = uniform_workload(system.tree.n, 60, read_ratio=0.5, seed=7)
        system.run(copy_sequence(wl))
        assert all(m.ok for m in monitors)
        fanout = next(m for m in monitors if isinstance(m, ProbeFanoutMonitor))
        assert fanout.checked > 0  # Lemma 3.3 actually exercised

    def test_monitors_require_enabled_trace(self):
        with pytest.raises(ValueError):
            attach_standard_monitors(TraceLog(enabled=False))

    def test_lease_symmetry_violation_on_doctored_events(self):
        log = TraceLog(enabled=True)
        mon = LeaseSymmetryMonitor(strict=True).attach(log)
        log.emit(0.0, "lease_granted", 0, grantee=1)
        # grantee 1 never emits lease_acquired -> asymmetric at quiescence
        with pytest.raises(MonitorViolation) as exc:
            log.emit(1.0, "quiescent", -1)
        assert "Lemma 3.1" in str(exc.value)
        assert exc.value.violation.monitor == "lease-symmetry"
        assert mon.violations

    def test_lease_symmetry_collect_mode(self):
        log = TraceLog(enabled=True)
        mon = LeaseSymmetryMonitor(strict=False).attach(log)
        log.emit(0.0, "lease_acquired", 1, source=0)
        log.emit(1.0, "quiescent", -1)
        assert not mon.ok and len(mon.violations) == 1

    def test_probe_fanout_violation_on_missing_probe(self):
        log = TraceLog(enabled=True)
        ProbeFanoutMonitor(strict=True).attach(log)
        log.emit(0.0, "combine_begin", 0, req=0,
                 expected_probes=[[0, 1], [0, 2]])
        log.emit(0.0, "send", 0, dst=1, msg="probe")  # (0, 2) never probed
        with pytest.raises(MonitorViolation) as exc:
            log.emit(1.0, "span", 0, req=0, op="combine", start=0.0, end=1.0,
                     messages=2)
        assert "Lemma 3.3" in str(exc.value)

    def test_probe_fanout_skips_overlapping_combines(self):
        log = TraceLog(enabled=True)
        mon = ProbeFanoutMonitor(strict=True).attach(log)
        log.emit(0.0, "combine_begin", 0, req=0, expected_probes=[[0, 1]])
        log.emit(0.0, "combine_begin", 2, req=1, expected_probes=[[2, 1]])
        log.emit(0.0, "send", 0, dst=1, msg="probe")
        log.emit(1.0, "span", 0, req=0, op="combine", start=0.0, end=1.0, messages=1)
        log.emit(1.0, "span", 2, req=1, op="combine", start=0.0, end=1.0, messages=0)
        assert mon.ok and mon.skipped == 2 and mon.checked == 0

    def test_delivery_contract_violation_on_lost_send(self):
        log = TraceLog(enabled=True)
        DeliveryContractMonitor(strict=True).attach(log)
        log.emit(0.0, "send", 0, dst=1, msg="update")
        with pytest.raises(MonitorViolation):
            log.emit(1.0, "quiescent", -1)

    def test_delivery_contract_ignores_frames(self):
        log = TraceLog(enabled=True)
        mon = DeliveryContractMonitor(strict=True).attach(log)
        log.emit(0.0, "send", 0, dst=1, msg="seg:update")
        log.emit(0.0, "send", 1, dst=0, msg="ack")
        log.emit(1.0, "quiescent", -1)
        assert mon.ok

    def test_delivery_failed_is_immediate_violation(self):
        log = TraceLog(enabled=True)
        DeliveryContractMonitor(strict=True).attach(log)
        with pytest.raises(MonitorViolation):
            log.emit(3.0, "delivery_failed", 0, dst=1, msg="probe", seq=4,
                     attempts=25)

    def test_delivery_contract_detects_raw_faulty_network(self):
        """Without the reliability layer, dropped messages break the
        contract — the monitor notices on a bare FaultyNetwork run."""
        from repro.core.engine import faulty_concurrent_system, run_with_faults

        tree = random_tree(8, 4)
        system = faulty_concurrent_system(
            tree, FaultPlan(drop_prob=0.3, seed=9),
            latency=constant_latency(1.0), seed=4, trace_enabled=True,
        )
        monitors = attach_standard_monitors(system.trace, strict=False)
        wl = uniform_workload(tree.n, 30, read_ratio=0.5, seed=4)
        run_with_faults(system, [
            ScheduledRequest(time=50.0 * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ])
        system.trace.emit(system.sim.now, "quiescent", -1)
        delivery = next(m for m in monitors if isinstance(m, DeliveryContractMonitor))
        assert not delivery.ok  # drops really were observed

    def test_expected_probe_edges_matches_frontier(self):
        tree = binary_tree(2)
        system = AggregationSystem(tree)
        # Fresh system: no leases, frontier from 0 is every directed edge
        # away from the root.
        frontier = expected_probe_edges(system.nodes, 0)
        assert frontier == {(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)}
        # After a combine at 0 every edge is leased: empty frontier.
        system.execute(combine(0))
        assert expected_probe_edges(system.nodes, 0) == set()

    def test_chaos_run_all_monitors_pass(self):
        tree = random_tree(8, 6)
        system = reliable_concurrent_system(
            tree,
            FaultPlan(drop_prob=0.15, duplicate_prob=0.075, reorder_prob=0.15,
                      seed=11),
            config=ReliabilityConfig(base_timeout=6.0, backoff=1.5,
                                     max_timeout=20.0, combine_deadline=600.0),
            latency=constant_latency(1.0),
            seed=6,
            trace_enabled=True,
        )
        monitors = attach_standard_monitors(system.trace, strict=True)
        wl = uniform_workload(tree.n, 40, read_ratio=0.5, seed=6)
        system.run([
            ScheduledRequest(time=600.0 * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ])
        assert all(m.ok for m in monitors)


# ------------------------------------------------- reliability trace events
class TestReliabilityTraceEvents:
    def _chaos_system(self, drop=0.25, dup=0.1, reorder=0.2, seed=2):
        tree = random_tree(6, 3)
        system = reliable_concurrent_system(
            tree,
            FaultPlan(drop_prob=drop, duplicate_prob=dup, reorder_prob=reorder,
                      seed=seed + 5),
            config=ReliabilityConfig(base_timeout=6.0, backoff=1.5,
                                     max_timeout=20.0, combine_deadline=600.0),
            latency=constant_latency(1.0),
            seed=seed,
            trace_enabled=True,
        )
        wl = uniform_workload(tree.n, 30, read_ratio=0.5, seed=seed)
        result = system.run([
            ScheduledRequest(time=600.0 * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ])
        return system, result

    def test_send_fault_retransmit_deliver_ordering(self):
        system, result = self._chaos_system()
        trace = system.trace
        kinds = {ev.kind for ev in trace}
        assert {"send", "recv", "deliver", "fault", "retransmit"} <= kinds
        # For each edge+seq, the first retransmit comes after a fault and
        # before (or without) the corresponding deliver.
        retrans = trace.events(kind="retransmit")
        assert retrans, "chaos run produced no retransmits"
        faults = trace.events(kind="fault")
        assert faults and faults[0].time <= retrans[0].time
        # Deliveries release payloads in per-edge FIFO seq order.
        seq_by_edge = {}
        for ev in trace.events(kind="deliver"):
            edge = (ev.detail["src"], ev.node)
            seq = ev.detail.get("seq")
            if seq is None:
                continue
            assert seq > seq_by_edge.get(edge, 0)
            seq_by_edge[edge] = seq

    def test_duplicate_suppression_traced(self):
        system, result = self._chaos_system(drop=0.0, dup=0.4, reorder=0.0)
        dups = system.trace.events(kind="dup_suppressed")
        assert dups, "duplicate-heavy run suppressed no duplicates"
        for ev in dups:
            assert "seq" in ev.detail and "src" in ev.detail

    def test_retransmit_counter_matches_overhead_ledger(self):
        system, result = self._chaos_system()
        counted = system.metrics.counter_total("retransmits_total")
        assert counted == result.stats.overhead_by_kind().get("retransmit", 0)
        assert counted == len(system.trace.events(kind="retransmit"))

    def test_reorder_buffer_gauge_high_water(self):
        system, _ = self._chaos_system(drop=0.0, dup=0.0, reorder=0.45)
        depths = [
            g.max
            for (name, _), g in system.metrics._gauges.items()
            if name == "reorder_buffer_depth"
        ]
        assert depths and max(depths) >= 1  # reordering actually buffered
        # current depth is back to zero at quiescence on every edge
        assert all(
            g.value == 0
            for (name, _), g in system.metrics._gauges.items()
            if name == "reorder_buffer_depth"
        )


# ------------------------------------------------------------ JSONL export
class TestExport:
    def test_sequential_roundtrip_bit_identical(self, tmp_path):
        system = AggregationSystem(binary_tree(3), trace_enabled=True)
        wl = uniform_workload(system.tree.n, 60, read_ratio=0.8, seed=7)
        system.run(copy_sequence(wl))
        path = tmp_path / "run.jsonl"
        n = export_jsonl(system.trace, path)
        assert n == len(system.trace)
        back = import_jsonl(path)
        assert trace_diff(system.trace, back) == []
        # Re-export is byte-identical.
        assert dumps_events(back) == path.read_text()

    def test_span_events_roundtrip_bit_identical(self, tmp_path):
        """Emitting a span event must not mutate the span (the historical
        bug popped ``"node"`` out of a shared dict rendering), and the
        exported JSONL must carry every span bit-identically."""
        system = AggregationSystem(binary_tree(3), trace_enabled=True)
        wl = uniform_workload(system.tree.n, 40, read_ratio=0.6, seed=3)
        result = system.run(copy_sequence(wl))
        for span in result.spans:
            d = span.to_dict()
            assert d["node"] == span.node
            assert span.to_dict() == d  # repeated rendering is stable
            assert "node" not in span.to_event_detail()
            assert "node" in span.to_dict()  # detail rendering didn't mutate
        path = tmp_path / "spans.jsonl"
        export_jsonl(system.trace, path)
        back = import_jsonl(path)
        exported = [ev for ev in back if ev.kind == "span"]
        assert len(exported) == len(result.spans)
        for ev, span in zip(exported, result.spans):
            assert ev.node == span.node
            assert dict(ev.detail, node=ev.node) == span.to_dict()
        assert dumps_events(back) == path.read_text()

    def test_chaos_roundtrip_bit_identical(self, tmp_path):
        tree = random_tree(8, 6)
        system = reliable_concurrent_system(
            tree,
            FaultPlan(drop_prob=0.15, duplicate_prob=0.075, reorder_prob=0.15,
                      seed=11),
            config=ReliabilityConfig(base_timeout=6.0, backoff=1.5,
                                     max_timeout=20.0, combine_deadline=600.0),
            latency=constant_latency(1.0),
            seed=6,
            trace_enabled=True,
        )
        wl = uniform_workload(tree.n, 40, read_ratio=0.5, seed=6)
        system.run([
            ScheduledRequest(time=600.0 * i, request=q)
            for i, q in enumerate(copy_sequence(wl))
        ])
        path = tmp_path / "chaos.jsonl"
        export_jsonl(system.trace, path)
        back = import_jsonl(path)
        assert trace_diff(system.trace, back) == []
        assert dumps_events(back) == path.read_text()
        # The re-imported trace still satisfies the lemma monitors when
        # replayed through fresh ones.
        replay = TraceLog(enabled=True)
        monitors = attach_standard_monitors(replay, strict=True)
        for ev in back:
            replay.emit(ev.time, ev.kind, ev.node, **ev.detail)
        assert all(m.ok for m in monitors)

    def test_trace_diff_reports_differences(self):
        a = TraceLog(enabled=True)
        b = TraceLog(enabled=True)
        a.emit(0.0, "send", 0, dst=1, msg="probe")
        b.emit(0.0, "send", 0, dst=1, msg="update")
        b.emit(1.0, "quiescent", -1)
        diffs = trace_diff(a, b)
        assert len(diffs) == 2
        assert "detail" in diffs[0] and "length mismatch" in diffs[1]

    def test_summary_and_top_edges(self):
        log = TraceLog(enabled=True)
        for _ in range(3):
            log.emit(0.0, "send", 0, dst=1, msg="update")
        log.emit(0.0, "send", 1, dst=0, msg="ack")  # frame: not logical
        log.emit(2.0, "span", 0, req=0, op="write", start=0.0, end=2.0,
                 messages=3)
        s = trace_summary(log)
        assert s["events"] == 5
        assert s["logical_messages"] == 3
        assert s["time_window"] == [0.0, 2.0]
        assert s["spans"] == 1 and s["failed_spans"] == 0
        assert top_edges(log) == [((0, 1), 3)]
        assert is_logical_kind("probe") and not is_logical_kind("seg:update")


# ------------------------------------------------------------- report/CLI
class TestReportAndCli:
    def test_summarize_run_data_has_histograms(self):
        system = AggregationSystem(binary_tree(2), trace_enabled=True)
        wl = uniform_workload(system.tree.n, 40, read_ratio=0.5, seed=5)
        result = system.run(copy_sequence(wl))
        from repro.report import summarize_run_data

        data = summarize_run_data(result)
        mpr = data["histograms"]["messages_per_request"]
        assert mpr["combine"]["count"] > 0 and mpr["write"]["count"] > 0
        assert data["histograms"]["combine_latency"]["count"] == mpr["combine"]["count"]
        assert data["hottest_edges"]
        json.dumps(data)  # JSON-safe

    def test_summarize_run_mentions_hottest_edges(self):
        system = AggregationSystem(path_tree(4))
        system.execute(write(3, 1.0))
        system.execute(combine(0))
        from repro.report import summarize_run

        assert "hottest edges:" in summarize_run(system.result())

    def test_cli_demo_json(self, capsys):
        from repro.cli import main

        assert main(["demo", "--topology", "path", "--nodes", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["histograms"]["combine_latency"]["count"] == 2
        assert data["monitors"]["violations"] == 0

    def test_cli_trace_record_diff_summarize(self, tmp_path, capsys):
        from repro.cli import main

        t1 = str(tmp_path / "a.jsonl")
        t2 = str(tmp_path / "b.jsonl")
        args = ["trace", "record", "--topology", "binary", "--nodes", "7",
                "--length", "30"]
        assert main(args + ["--out", t1]) == 0
        assert main(args + ["--out", t2]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", t1, t2]) == 0
        assert "traces identical" in capsys.readouterr().out
        assert main(["trace", "summarize", t1]) == 0
        assert "logical messages" in capsys.readouterr().out
        assert main(["trace", "top-edges", t1, "--top", "2"]) == 0
        assert "busiest undirected edges" in capsys.readouterr().out

    def test_cli_trace_diff_detects_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        t1 = str(tmp_path / "a.jsonl")
        t2 = str(tmp_path / "b.jsonl")
        base = ["trace", "record", "--topology", "path", "--nodes", "5",
                "--length", "20"]
        assert main(base + ["--out", t1]) == 0
        assert main(base + ["--seed", "1", "--out", t2]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", t1, t2]) == 1
        assert "traces differ" in capsys.readouterr().out

    def test_cli_chaos_trace_out(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "chaos.jsonl")
        assert main(["chaos", "--topology", "random", "--nodes", "6",
                     "--length", "10", "--max-rate-pct", "10",
                     "--step-pct", "10", "--trace-out", out]) == 0
        assert import_jsonl(out).count("span") > 0
