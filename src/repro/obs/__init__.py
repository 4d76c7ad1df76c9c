"""Unified telemetry layer: metrics, request spans, trace export, monitors.

The paper's entire analysis is stated in observable quantities — per-edge
per-kind message counts (Lemma 3.9 / Figure 2), lease transitions
(Figure 4), per-combine probe fan-out (Lemma 3.3) — and this package makes
those quantities first-class at runtime:

``repro.obs.metrics``
    :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
    histograms scoped per-node / per-directed-edge, with deterministic
    JSON snapshots.
``repro.obs.spans``
    :class:`RequestSpan` — one record per combine/write: virtual-time
    window, attributed messages, probe fan-out, failure cause.
``repro.obs.export``
    JSONL trace export/import with bit-identical round-trips, plus
    :func:`trace_diff` / :func:`trace_summary` for the ``repro trace`` CLI.
``repro.obs.monitors``
    Streaming lemma checkers on the trace event bus; violations raise
    structured :class:`MonitorViolation` in tests/CI and print as warnings
    in the CLI.
``repro.obs.perf``
    :class:`PerfProfiler` — wall-clock phase timers and counters,
    attached to class attributes from outside and detached afterwards,
    with collapsed (flamegraph) stacks.
``repro.obs.costmeter``
    :class:`CostMeter` — streaming per-edge DP accountant comparing the
    observed message cost against the offline OPT lower bound live.

The engines in :mod:`repro.core.engine` populate all of it: every run gets
a registry and spans for free; enabling tracing additionally feeds the
event bus (and therefore the monitors and the exporter).
"""

from repro.obs.costmeter import CostMeter, CostReport
from repro.obs.export import (
    dumps_events,
    event_from_dict,
    event_to_dict,
    export_jsonl,
    import_jsonl,
    loads_events,
    top_edges,
    trace_diff,
    trace_summary,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsBridge,
    MetricsRegistry,
)
from repro.obs.monitors import (
    DeliveryContractMonitor,
    LeaseSymmetryMonitor,
    Monitor,
    MonitorViolation,
    ProbeFanoutMonitor,
    Violation,
    all_violations,
    attach_standard_monitors,
    expected_probe_edges,
)
from repro.obs.perf import PerfProfiler, format_collapsed, parse_collapsed
from repro.obs.spans import RequestSpan, probe_fanout_from_events, span_summary

__all__ = [
    "CostMeter",
    "CostReport",
    "PerfProfiler",
    "format_collapsed",
    "parse_collapsed",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsBridge",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "RequestSpan",
    "probe_fanout_from_events",
    "span_summary",
    "export_jsonl",
    "import_jsonl",
    "dumps_events",
    "loads_events",
    "event_to_dict",
    "event_from_dict",
    "trace_diff",
    "trace_summary",
    "top_edges",
    "Monitor",
    "MonitorViolation",
    "Violation",
    "LeaseSymmetryMonitor",
    "ProbeFanoutMonitor",
    "DeliveryContractMonitor",
    "attach_standard_monitors",
    "all_violations",
    "expected_probe_edges",
]
