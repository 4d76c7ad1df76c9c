"""Structured execution traces — the event bus of the observability layer.

A :class:`TraceLog` is an ordered log of :class:`TraceEvent` records —
request initiations/completions, message sends/receives, lease transitions —
used by tests to check the paper's lemmas against actual executions (e.g.
"during this combine exactly |A| probe messages were sent", Lemma 3.3), by
the live lemma monitors (:mod:`repro.obs.monitors`), and by the JSONL
exporter (:mod:`repro.obs.export`).  Tracing is optional and off by default.

Beyond plain appends the log supports:

* **typed event schemas** — :data:`EVENT_SCHEMAS` names every event kind the
  repo emits together with its required detail fields; ``TraceLog(strict=
  True)`` validates each emit against it (tests run strict, production
  paths default lenient so ad-hoc debugging events stay cheap);
* **a bounded ring-buffer mode** — ``max_events`` caps memory for
  long-running systems; :meth:`TraceLog.mark` cursors stay valid across
  evictions (they are absolute sequence numbers);
* **subscriber callbacks** — :meth:`TraceLog.subscribe` registers live
  consumers (span recorders, lemma monitors, streaming exporters) invoked
  synchronously on every emit;
* **emit-time copying** — mutable detail values (dicts/lists/sets) are
  shallow-copied on emit, so events stay fixed even when the caller keeps
  mutating the object it logged (``uaw`` sets, probe-target sets, ...).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

#: Subscriber callback signature: receives each event as it is emitted.
Subscriber = Callable[["TraceEvent"], None]

#: Every event kind emitted by the repo, mapped to its *required* detail
#: fields.  Emitters may add extra fields; ``strict`` logs reject unknown
#: kinds and missing required fields.  This doubles as the trace-file format
#: reference (see docs/API.md, "Observability").
EVENT_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    # transport
    "send": ("dst", "msg"),              # logical or frame-level send
    "recv": ("src", "msg"),              # wire-level arrival
    "deliver": ("src", "msg"),           # reliable layer releases a payload
    "fault": ("dst", "msg", "fault"),    # injected drop/duplicate/reorder
    "retransmit": ("dst", "msg", "seq", "attempt"),
    "dup_suppressed": ("src", "seq"),
    "delivery_failed": ("dst", "msg", "seq", "attempts"),
    "conversation_restart": ("dst", "epoch"),  # edge reseq after a give-up
    # mechanism
    "probe_round": ("requestor", "targets"),
    "combine_done": ("value",),
    "scoped_combine_done": ("toward", "value"),
    "write_done": ("arg",),
    "lease_acquired": ("source",),       # taken[source] := True at node
    "lease_released": ("source",),       # taken[source] := False at node
    "lease_granted": ("grantee",),       # granted[grantee] := True at node
    "lease_broken": ("grantee",),        # granted[grantee] := False at node
    "lease_revoked": ("grantee",),       # dynamic trees: grant voided
    "lease_voided": ("source",),         # dynamic trees: taken side voided
    # engine
    "combine_begin": ("req",),
    "write_begin": ("req",),
    "combine_timeout": ("deadline",),
    "span": ("req", "op", "start", "end", "messages"),
    "quiescent": (),
    # crash-recovery (scheduled faults, checkpoints, lease expiry)
    "node_crash": (),                    # node went down (volatile state lost)
    "node_recover": (),                  # node restored from its checkpoint
    "partition": ("edges",),             # the listed edges are now cut
    "heal": ("edges",),                  # the listed edges carry traffic again
    "checkpoint": ("seq",),              # node persisted a checkpoint
    "lease_expired": ("peer", "side"),   # TTL expiry; side: "taken"|"granted"
    "reprobe": ("dst", "root"),          # sweep re-probed a stuck round
}


def _copy_value(value: Any) -> Any:
    """Shallow-copy mutable containers so emitted events stay immutable."""
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, set):
        return set(value)
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    Attributes
    ----------
    time:
        Virtual time (0.0 in the sequential engine).
    kind:
        Event kind — see :data:`EVENT_SCHEMAS` for the catalogue.
    node:
        The node at which the event happened.
    detail:
        Event payload (message kind, peer, request, values, ...).
    """

    time: float
    kind: str
    node: int
    detail: Dict[str, Any] = field(default_factory=dict)


class SchemaError(ValueError):
    """A strict TraceLog rejected an emit (unknown kind / missing field)."""


class TraceLog:
    """Ordered event log with query helpers, ring-buffer mode and subscribers.

    Parameters
    ----------
    enabled:
        When False, :meth:`emit` is a no-op (subscribers still do *not*
        fire) — the zero-overhead default for production runs.
    max_events:
        Optional ring-buffer cap.  When set, only the most recent
        ``max_events`` events are retained; :attr:`dropped` counts
        evictions and :meth:`mark`/:meth:`since` keep working (cursors are
        absolute sequence numbers, clamped to the retained window).
    strict:
        Validate every emit against :data:`EVENT_SCHEMAS`; raises
        :class:`SchemaError` on unknown kinds or missing required fields.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_events: Optional[int] = None,
        strict: bool = False,
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.enabled = enabled
        self.strict = strict
        self.max_events = max_events
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self._dropped = 0
        self._subscribers: List[Subscriber] = []

    # ------------------------------------------------------------- emitting
    def emit(self, time: float, kind: str, node: int, **detail: Any) -> None:
        """Append an event and notify subscribers (no-op when disabled).

        Mutable detail values are shallow-copied so later caller-side
        mutation never rewrites history.
        """
        if not self.enabled:
            return
        if self.strict:
            required = EVENT_SCHEMAS.get(kind)
            if required is None:
                raise SchemaError(f"unknown trace event kind {kind!r}")
            missing = [f for f in required if f not in detail]
            if missing:
                raise SchemaError(
                    f"event {kind!r} missing required detail field(s) {missing}"
                )
        payload = {k: _copy_value(v) for k, v in detail.items()}
        event = TraceEvent(time=time, kind=kind, node=node, detail=payload)
        if self.max_events is not None and len(self._events) == self.max_events:
            self._dropped += 1
        self._events.append(event)
        for fn in self._subscribers:
            fn(event)

    # ---------------------------------------------------------- subscribers
    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Register a live consumer called synchronously on every emit.

        Returns ``fn`` so the call can be used as a decorator.  Subscriber
        exceptions propagate to the emitter — that is how the lemma
        monitors turn a violated invariant into a hard failure in tests.
        """
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove a previously registered subscriber (no-op if absent)."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    # -------------------------------------------------------------- queries
    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer since the last :meth:`clear`."""
        return self._dropped

    @property
    def total_emitted(self) -> int:
        """All events ever emitted (retained + evicted)."""
        return len(self._events) + self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, i: int) -> TraceEvent:
        return self._events[i]

    def events(
        self,
        kind: Optional[str] = None,
        node: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Filtered view of the retained log."""
        out = []
        for ev in self._events:
            if kind is not None and ev.kind != kind:
                continue
            if node is not None and ev.node != node:
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def count(self, kind: str) -> int:
        """Number of retained events of ``kind``."""
        return sum(1 for ev in self._events if ev.kind == kind)

    def mark(self) -> int:
        """A cursor into the log; use with :meth:`since`.

        Cursors are absolute sequence numbers, so they survive ring-buffer
        eviction (events evicted since the mark are simply gone from the
        returned window).
        """
        return self.total_emitted

    def since(self, mark: int) -> List[TraceEvent]:
        """Events appended after the given :meth:`mark` cursor (retained
        portion only, if the ring buffer evicted part of the window).

        Copies only those events, not the whole retained log: the engines
        call this once per combine, so a full copy would cost a traced run
        time in proportion to its history.
        """
        count = self.total_emitted - mark
        if count <= 0:
            return []
        tail = list(islice(reversed(self._events), count))
        tail.reverse()
        return tail

    def clear(self) -> None:
        """Drop all events and reset the eviction counter (subscribers stay)."""
        self._events.clear()
        self._dropped = 0
