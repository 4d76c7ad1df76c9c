"""The execution-backend seam: protocol, shared telemetry, and factory.

PR 3 gave the repo one declarative assembly point for *transports*
(:func:`repro.sim.transport.build_transport`); this module is the same
seam one layer up, for *execution backends*.  A backend owns the protocol
state of every node plus the in-flight message queue and exposes the
driving surface the engines
(:class:`~repro.core.engine.AggregationSystem` and friends) need:

=====================  ====================================================
``submit_write(q)``    initiate a write request (T2) — no draining
``submit_combine(...)``initiate a (scoped) combine (T1) — no draining
``drain()``            run the transport to quiescence
``is_quiescent()``     condition (2) of Section 2
``state_snapshot()``   canonical hashable state (quiescent states)
``check_quiescent_invariants()``  Lemmas 3.1 / 3.2 / 3.4
``lease_graph_edges()``the lease graph G(Q) of Section 3.2
``nodes``              node id -> node object (or view) for inspection
=====================  ====================================================

Two backends implement it:

* ``reference`` — :class:`~repro.core.runtime.NodeRuntime`: one
  :class:`~repro.core.mechanism.LeaseNode` object per node, one message
  object per send, every transport stack, dynamic topology, recovery.
  The semantics oracle.
* ``flat`` — :class:`~repro.flat.runtime.FlatRuntime`: per-node/per-edge
  protocol state in integer-indexed arrays, interned message structs and
  batched delivery/accounting in one kernel loop.  Synchronous transport
  only, static topology, no traces, ghost logs, crashes or model-checker
  stepping; equivalence with the reference backend is pinned by the
  golden workloads, a randomized differential test and the runtime
  matrix (see ``tests/test_flat_equivalence.py``).

:func:`build_backend` is the single factory; engines select a backend by
name exactly like they select a transport by config.  What the flat
backend can host is decided in one place, :func:`_flat_unsupported_reason`
(plus the policy flattening in :mod:`repro.flat.policy`); anything else
raises :class:`BackendUnsupported`.  There is no fallback: the dynamic and
concurrent engines always build the reference backend.

Both backends and the live :class:`~repro.net.server.NodeServer` inherit
one request lifecycle from :class:`RuntimeTelemetry`: ``emit_request_begin``
opens a request as an :class:`OpenRequest`, and ``finish_span`` closes it,
records its metrics and ``span`` event and returns its
:class:`~repro.obs.spans.RequestSpan`.  The engines keep the run's spans;
no host does, so a long-lived ``serve`` process holds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.monitors import expected_probe_edges
from repro.obs.spans import RequestSpan, probe_fanout_from_events
from repro.workloads.requests import COMBINE, WRITE, Request

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendUnsupported",
    "OpenRequest",
    "RuntimeTelemetry",
    "build_backend",
]

#: The selectable backend names, in preference order for diagnostics.
BACKENDS = ("reference", "flat")


class BackendUnsupported(RuntimeError):
    """The requested backend cannot host this configuration.

    Raised by :func:`build_backend` (and by
    :class:`~repro.flat.runtime.FlatRuntime` itself) when the flat
    backend is asked for something only the reference backend provides —
    a simulated transport stack, an unflattenable policy, recovery
    management, tracing, ghost logs, or dynamic topology changes.
    """


@runtime_checkable
class Backend(Protocol):
    """Structural type of an execution backend (see module doc).

    The engines drive this surface only; everything else (``nodes``
    views; ``fork``, ``network`` stepping and crash / recover for the
    model checker, which only the reference backend provides) is shared
    duck-typed convention pinned by the backend equivalence tests.
    """

    tree: Any
    op: Any
    trace: Any
    metrics: Any
    stats: Any
    crashed: set

    # ------------------------------------------------------------- driving
    def submit_write(self, request: Request) -> None: ...

    def submit_combine(
        self, request: Request, on_complete: Callable[[Request], None]
    ) -> None: ...

    def drain(self) -> None: ...

    def is_quiescent(self) -> bool: ...

    # ------------------------------------------------------- verification
    def state_snapshot(self) -> Tuple[Any, ...]: ...

    def check_quiescent_invariants(self) -> None: ...

    def lease_graph_edges(self) -> List[tuple]: ...


@dataclass(slots=True)
class OpenRequest:
    """A request opened by :meth:`RuntimeTelemetry.emit_request_begin`: its
    initiation time, the goodput total ``m0`` and trace cursor ``mark``
    there, and whether another request shares the ledger (``overlapped``)."""

    req: int
    request: Request
    start: float
    m0: int
    mark: int
    overlapped: bool


class RuntimeTelemetry:
    """The request lifecycle every host shares: begin, span, metrics.

    The reference and flat backends and the live ``NodeServer`` open each
    request with :meth:`emit_request_begin` and close it with
    :meth:`finish_span`, so spans are built from the same goodput ledger
    diffs, the metrics see the same requests and the cost meter is fed at
    the same initiation points on every host.  The engines keep the spans
    these return; a host keeps none.  Subclasses provide ``trace``,
    ``metrics``, ``stats``, ``cost_meter``, ``now`` and ``nodes``.
    """

    trace: Any
    metrics: Any
    stats: Any
    cost_meter: Any

    def emit_request_begin(
        self, req_id: int, request: Request, overlapped: bool = False
    ) -> OpenRequest:
        """Open a request: emit its ``write_begin`` / ``combine_begin`` event.

        Unscoped combines initiated at quiescence are stamped with the
        expected probe frontier (Lemma 3.3) so the live monitors can
        check the fan-out; overlapped initiations skip the stamp (the
        frontier is only defined in quiescent states).

        Also the cost meter's feed point: initiations arrive here in
        order, which is exactly the prefix ``σ`` the per-edge DP runs on.
        """
        now = self.now
        opened = OpenRequest(
            req_id, request, now, self.stats.total, self.trace.mark(), overlapped
        )
        if self.cost_meter is not None:
            self.cost_meter.observe(request)
        if self.trace.enabled:
            if request.op == WRITE:
                self.trace.emit(now, "write_begin", request.node, req=req_id)
            elif request.op == COMBINE:
                detail: Dict[str, Any] = {"req": req_id}
                if request.scope is not None:
                    detail["scope"] = request.scope
                elif not overlapped:
                    detail["expected_probes"] = [
                        list(e)
                        for e in sorted(expected_probe_edges(self.nodes, request.node))
                    ]
                self.trace.emit(now, "combine_begin", request.node, **detail)
        return opened

    def finish_span(
        self, opened: OpenRequest, failure: Optional[str] = None
    ) -> RequestSpan:
        """Close a request now: record its metrics, emit its ``span`` event
        (:meth:`~repro.obs.spans.RequestSpan.to_event_detail`) and return it.

        Messages are the goodput delta since initiation, exact only when
        the request ran alone (``overlapped`` flags the rest); the probe
        fan-out of an exact combine is read from the trace since then.  The
        per-(node, op) instruments are memoized: registry lookups
        canonicalize a label dict per call, which is measurable on the
        sequential engine's per-request path.
        """
        request = opened.request
        op = request.op
        fanout = ()
        exact = not opened.overlapped and failure is None
        if exact and op == COMBINE and self.trace.enabled:
            fanout = probe_fanout_from_events(self.trace.since(opened.mark))
        span = RequestSpan(
            req=opened.req,
            node=request.node,
            op=op,
            start=opened.start,
            end=self.now,
            messages=self.stats.total - opened.m0,
            probe_fanout=fanout,
            scope=request.scope,
            value=request.retval if op == COMBINE else request.arg,
            failure=failure,
            overlapped=opened.overlapped,
        )
        cache = self.__dict__.get("_span_instruments")
        if cache is None:
            cache = self.__dict__["_span_instruments"] = {}
        key = (span.node, op)
        pair = cache.get(key)
        if pair is None:
            pair = cache[key] = (
                self.metrics.counter("requests_total", node=span.node, op=op),
                self.metrics.histogram("messages_per_request", op=op),
            )
        pair[0].inc()
        pair[1].observe(span.messages)
        if op == COMBINE:
            latency = cache.get("combine_latency")
            if latency is None:
                latency = cache["combine_latency"] = self.metrics.histogram(
                    "combine_latency", buckets=LATENCY_BUCKETS
                )
            latency.observe(span.duration)
            if failure is not None:
                self.metrics.counter(
                    "request_failures_total", node=span.node, kind=failure
                ).inc()
        self.trace.emit(span.end, "span", span.node, **span.to_event_detail())
        return span

    def emit_quiescent(self) -> None:
        """Emit the engine-level ``quiescent`` event (monitors hook on it)."""
        if not self.trace.enabled:
            return
        from repro.core.runtime import SYSTEM_NODE

        self.trace.emit(self.now, "quiescent", SYSTEM_NODE)


def build_backend(
    name: str,
    tree: Any,
    *,
    op: Any,
    policy_factory: Any,
    transport: Any = None,
    ghost: bool = False,
    trace_enabled: bool = False,
    seed: int = 0,
    recovery: Any = None,
    cost_accounting: bool = False,
) -> Any:
    """Assemble the execution backend named ``name``.

    Mirrors :func:`repro.sim.transport.build_transport`: the caller
    describes *what* it needs and the factory picks the implementation.
    ``name`` is ``"reference"`` or ``"flat"`` (see :data:`BACKENDS`); the
    flat backend raises :class:`BackendUnsupported` for anything
    :func:`_flat_unsupported_reason` or its policy flattening refuses.
    The other parameters are the ``NodeRuntime`` constructor surface,
    forwarded verbatim.
    """
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    if name == "flat":
        reason = _flat_unsupported_reason(
            transport=transport,
            recovery=recovery,
            trace_enabled=trace_enabled,
            ghost=ghost,
        )
        if reason is not None:
            raise BackendUnsupported(reason)
        from repro.flat.runtime import FlatRuntime

        return FlatRuntime(
            tree,
            op=op,
            policy_factory=policy_factory,
            cost_accounting=cost_accounting,
        )
    from repro.core.runtime import NodeRuntime

    return NodeRuntime(
        tree,
        op=op,
        policy_factory=policy_factory,
        transport=transport,
        ghost=ghost,
        trace_enabled=trace_enabled,
        seed=seed,
        recovery=recovery,
        cost_accounting=cost_accounting,
    )


def _flat_unsupported_reason(
    *,
    transport: Any,
    recovery: Any,
    trace_enabled: bool,
    ghost: bool,
) -> Optional[str]:
    """Why the flat backend cannot host this configuration (None = it can).

    The one capability check of the flat backend: its kernel runs the
    synchronous, static-topology, crash-free automaton and nothing else.
    """
    if transport is not None and not getattr(transport, "synchronous", True):
        return (
            "the flat backend runs the synchronous transport only; "
            "simulated stacks need the reference backend"
        )
    if recovery is not None:
        return "RecoveryManager needs the reference backend"
    if trace_enabled:
        return "tracing (trace_enabled) needs the reference backend"
    if ghost:
        return "ghost logs (ghost) need the reference backend"
    return None
