"""Metrics registry: named counters, gauges and fixed-bucket histograms.

The paper's analysis is stated entirely in countable quantities — messages
per directed edge and per kind (Lemma 3.9 / Figure 2), probes per combine
(Lemma 3.3), lease transitions (Figure 4) — so the registry mirrors that
shape: every instrument is identified by a **name plus a label set**, and
the conventional labels are ``node=<id>`` (per-node scope), ``src=<id>,
dst=<id>`` (per-directed-edge scope) and ``op``/``kind`` discriminators.

Instruments are cheap plain-Python objects created on first touch::

    reg = MetricsRegistry()
    reg.counter("messages_total", src=0, dst=1, kind="probe").inc()
    reg.gauge("reorder_buffer_depth", src=0, dst=1).set(3)
    reg.histogram("combine_latency").observe(12.5)

:meth:`MetricsRegistry.snapshot` renders everything as a deterministic,
JSON-safe dict for ``summarize_run --json``, benchmark JSON artifacts and
the trace exporter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: A label set, canonicalized to a sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, Any], ...]

#: Default histogram bucket upper bounds (messages-per-request scale);
#: the final +inf bucket is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: Bucket presets for the standard instruments the engines populate.
LATENCY_BUCKETS: Tuple[float, ...] = (0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)


def _canon_labels(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotone event counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Point-in-time level with a high-water mark (e.g. reorder-buffer depth)."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value: float = 0
        self.max: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.set(self.value - amount)

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "max": self.max}


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets, like Prometheus).

    ``buckets`` is the ascending sequence of upper bounds; an implicit
    +inf bucket catches the overflow.  Tracks count/sum/min/max alongside
    the per-bucket tallies so averages survive the bucketing.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        b = tuple(buckets)
        if not b:
            raise ValueError("histogram needs at least one bucket bound")
        if list(b) != sorted(b):
            raise ValueError(f"bucket bounds must be ascending, got {b}")
        self.buckets = b
        self.counts = [0] * (len(b) + 1)  # last slot = +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile: the smallest bucket bound covering a
        ``q`` fraction of observations (``None`` when empty; the +inf
        bucket reports the tracked max)."""
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        target = q * self.count
        seen = 0
        for i, bound in enumerate(self.buckets):
            seen += self.counts[i]
            if seen >= target:
                return bound
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create home for every instrument in one run.

    One registry per engine instance; merged views across runs are just
    merged snapshots.  Lookup is ``O(1)`` per (name, labels) pair and the
    instruments are plain attribute-bumping objects, so recording on the
    hot path costs a dict probe plus an increment.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------ factories
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _canon_labels(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _canon_labels(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        key = (name, _canon_labels(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return inst

    # -------------------------------------------------------------- queries
    def counter_total(self, name: str) -> int:
        """Sum of a counter family across all label sets."""
        return sum(c.value for (n, _), c in self._counters.items() if n == name)

    def counter_values(self, name: str) -> Dict[LabelKey, int]:
        """Per-label-set values of a counter family."""
        return {k: c.value for (n, k), c in self._counters.items() if n == name}

    def histogram_values(self, name: str) -> Dict[LabelKey, Histogram]:
        """Per-label-set histograms of a histogram family."""
        return {k: h for (n, k), h in self._histograms.items() if n == name}

    def has(self, name: str) -> bool:
        """Does any instrument family with this name exist?"""
        return any(
            n == name
            for family in (self._counters, self._gauges, self._histograms)
            for (n, _) in family
        )

    # --------------------------------------------------------------- export
    @staticmethod
    def _labels_dict(key: LabelKey) -> Dict[str, Any]:
        return {k: v for k, v in key}

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-safe dump of every instrument.

        Shape::

            {"counters":   {name: [{"labels": {...}, "value": n}, ...]},
             "gauges":     {name: [{"labels": {...}, "value": v, "max": m}, ...]},
             "histograms": {name: [{"labels": {...}, "buckets": [...], ...}, ...]}}
        """
        def render(family: Dict[Tuple[str, LabelKey], Any]) -> Dict[str, List[Dict[str, Any]]]:
            out: Dict[str, List[Dict[str, Any]]] = {}
            for (name, key), inst in sorted(family.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))):
                entry: Dict[str, Any] = {"labels": self._labels_dict(key)}
                entry.update(inst.to_dict())
                out.setdefault(name, []).append(entry)
            return out

        return {
            "counters": render(self._counters),
            "gauges": render(self._gauges),
            "histograms": render(self._histograms),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Alias of :meth:`snapshot` (export-layer convention)."""
        return self.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class MetricsBridge:
    """Trace subscriber populating event-derived instruments.

    Attached by the engines whenever tracing is enabled; turns the event
    stream into per-edge message counters, per-node lease-transition
    counters and lease-hold-duration histograms.  (Instruments that need
    state the trace cannot see — reorder-buffer depth, retransmit counts —
    are recorded directly by :class:`~repro.sim.reliability.ReliableNetwork`
    instead.)
    """

    _LEASE_KINDS = frozenset(
        {"lease_acquired", "lease_released", "lease_granted", "lease_broken",
         "lease_revoked", "lease_voided"}
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._grant_time: Dict[Tuple[int, int], float] = {}
        # The per-event counters, looked up once per label tuple: a registry
        # lookup canonicalizes a label dict, and the bridge sees every event.
        self._messages: Dict[Tuple[int, Any, str], Counter] = {}
        self._lease_events: Dict[Tuple[int, str], Counter] = {}

    def __call__(self, ev: Any) -> None:
        kind = ev.kind
        if kind == "send":
            msg = str(ev.detail.get("msg", ""))
            # Frame-level traffic (reliability segments/ACKs) stays out of
            # the logical ledgers — same filter as repro.obs.export.
            if msg.startswith("seg:") or msg == "ack":
                return
            dst = ev.detail["dst"]
            counter = self._messages.get((ev.node, dst, msg))
            if counter is None:
                counter = self._messages[(ev.node, dst, msg)] = self.registry.counter(
                    "messages_total", src=ev.node, dst=dst, kind=msg
                )
            counter.inc()
        elif kind in self._LEASE_KINDS:
            counter = self._lease_events.get((ev.node, kind))
            if counter is None:
                counter = self._lease_events[(ev.node, kind)] = self.registry.counter(
                    "lease_events_total", node=ev.node, kind=kind
                )
            counter.inc()
            if kind == "lease_granted":
                self._grant_time[(ev.node, ev.detail["grantee"])] = ev.time
            elif kind in ("lease_broken", "lease_revoked"):
                t0 = self._grant_time.pop((ev.node, ev.detail["grantee"]), None)
                if t0 is not None:
                    self.registry.histogram(
                        "lease_hold_duration", buckets=LATENCY_BUCKETS, node=ev.node
                    ).observe(ev.time - t0)
