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
raises :class:`BackendUnsupported` — or, with ``fallback=True``, the
factory silently builds the reference backend instead (the dynamic
engine's behavior).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mechanism import LeaseNode

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendUnsupported",
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
    a simulated transport stack, a custom node class, an unflattenable
    policy, recovery management, tracing, ghost logs, a required feature
    (``dynamic``, ``sim``, ``explore``, ``crash``), or dynamic topology
    changes.
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
    spans: List[RequestSpan]
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


class RuntimeTelemetry:
    """Span/metrics/trace bookkeeping shared by every backend.

    Extracted from the historical ``NodeRuntime`` so the flat backend
    emits byte-identical telemetry from its batch boundaries: spans are
    built from the same goodput ledger diffs, the metrics bridge sees the
    same typed events, and the cost meter is fed at the same initiation
    points.  Subclasses provide ``trace``, ``metrics``, ``spans``,
    ``stats``, ``cost_meter``, ``now`` and ``nodes``.
    """

    trace: Any
    metrics: Any
    spans: List[RequestSpan]
    stats: Any
    cost_meter: Any

    def emit_request_begin(
        self, req_id: int, request: Request, overlapped: bool = False
    ) -> None:
        """Emit the ``write_begin`` / ``combine_begin`` event for a request.

        Unscoped combines initiated at quiescence are stamped with the
        expected probe frontier (Lemma 3.3) so the live monitors can
        check the fan-out; overlapped initiations skip the stamp (the
        frontier is only defined in quiescent states).

        Also the cost meter's feed point: initiations arrive here in
        order, which is exactly the prefix ``σ`` the per-edge DP runs on.
        """
        if self.cost_meter is not None:
            self.cost_meter.observe(request)
        if request.op == WRITE:
            if self.trace.enabled:
                self.trace.emit(self.now, "write_begin", request.node, req=req_id)
        elif request.op == COMBINE and self.trace.enabled:
            detail: Dict[str, Any] = {"req": req_id}
            if request.scope is not None:
                detail["scope"] = request.scope
            elif not overlapped:
                detail["expected_probes"] = [
                    list(e)
                    for e in sorted(expected_probe_edges(self.nodes, request.node))
                ]
            self.trace.emit(self.now, "combine_begin", request.node, **detail)

    def observe_span(self, span: RequestSpan) -> None:
        """Record one completed span: spans list, metrics, trace event.

        The trace detail is built by
        :meth:`~repro.obs.spans.RequestSpan.to_event_detail`, which
        excludes the redundant ``node`` field without mutating any dict a
        caller might also hold (the event's own ``node`` field carries it).

        The per-(node, op) instruments are memoized on the telemetry
        instance: registry lookups canonicalize a label dict per call,
        which is measurable on the sequential engine's per-request path.
        """
        self.spans.append(span)
        cache = self.__dict__.get("_span_instruments")
        if cache is None:
            cache = self.__dict__["_span_instruments"] = {}
        key = (span.node, span.op)
        pair = cache.get(key)
        if pair is None:
            pair = cache[key] = (
                self.metrics.counter("requests_total", node=span.node, op=span.op),
                self.metrics.histogram("messages_per_request", op=span.op),
            )
        pair[0].inc()
        pair[1].observe(span.messages)
        if span.op == COMBINE:
            latency = cache.get("combine_latency")
            if latency is None:
                latency = cache["combine_latency"] = self.metrics.histogram(
                    "combine_latency", buckets=LATENCY_BUCKETS
                )
            latency.observe(span.duration)
            if span.failure is not None:
                self.metrics.counter(
                    "request_failures_total", node=span.node, kind=span.failure
                ).inc()
        self.trace.emit(span.end, "span", span.node, **span.to_event_detail())

    def finish_span(
        self,
        req_id: int,
        request: Request,
        *,
        start: float,
        end: float,
        m0: int,
        mark: Optional[int] = None,
        overlapped: bool = False,
        failure: Optional[str] = None,
    ) -> RequestSpan:
        """Build and record the span of a finished request.

        ``m0`` is the goodput total at initiation (message attribution is
        exact only when the request ran alone — ``overlapped`` flags the
        rest); ``mark`` is the trace cursor at initiation, used to recover
        the probe fan-out of non-overlapped combines.
        """
        fanout = ()
        if (
            self.trace.enabled
            and request.op == COMBINE
            and not overlapped
            and failure is None
            and mark is not None
        ):
            fanout = probe_fanout_from_events(self.trace.since(mark))
        span = RequestSpan(
            req=req_id,
            node=request.node,
            op=request.op,
            start=start,
            end=end,
            messages=self.stats.total - m0,
            probe_fanout=fanout,
            scope=request.scope,
            value=request.retval if request.op == COMBINE else request.arg,
            failure=failure,
            overlapped=overlapped,
        )
        self.observe_span(span)
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
    metrics: Any = None,
    trace_max_events: Optional[int] = None,
    seed: int = 0,
    node_cls: Any = None,
    recovery: Any = None,
    cost_accounting: bool = False,
    require: Any = (),
    fallback: bool = False,
) -> Any:
    """Assemble the execution backend named ``name``.

    Mirrors :func:`repro.sim.transport.build_transport`: the caller
    describes *what* it needs and the factory picks the implementation.

    Parameters
    ----------
    name:
        ``"reference"`` or ``"flat"`` (see :data:`BACKENDS`).
    require:
        Feature names the caller will use beyond the core driving surface:
        ``"dynamic"`` (attach/detach/rename, :meth:`set_topology`),
        ``"sim"`` (a simulated transport stack), ``"crash"`` (crash /
        recover) and ``"explore"`` (model-checker stepping and ``fork``).
        Only the reference backend provides them.
    fallback:
        When the named backend cannot host the configuration, build the
        reference backend instead of raising :class:`BackendUnsupported`.

    All other parameters are the historical ``NodeRuntime`` constructor
    surface and are forwarded verbatim.
    """
    from repro.core.mechanism import LeaseNode
    from repro.core.runtime import NodeRuntime

    if node_cls is None:
        node_cls = LeaseNode
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    if name == "flat":
        reason = _flat_unsupported_reason(
            transport=transport,
            node_cls=node_cls,
            recovery=recovery,
            trace_enabled=trace_enabled,
            ghost=ghost,
            require=frozenset(require),
        )
        if reason is None:
            from repro.flat.runtime import FlatRuntime

            try:
                return FlatRuntime(
                    tree,
                    op=op,
                    policy_factory=policy_factory,
                    metrics=metrics,
                    cost_accounting=cost_accounting,
                )
            except BackendUnsupported as exc:
                reason = str(exc)
        if not fallback:
            raise BackendUnsupported(reason)
    return NodeRuntime(
        tree,
        op=op,
        policy_factory=policy_factory,
        transport=transport,
        ghost=ghost,
        trace_enabled=trace_enabled,
        metrics=metrics,
        trace_max_events=trace_max_events,
        seed=seed,
        node_cls=node_cls,
        recovery=recovery,
        cost_accounting=cost_accounting,
    )


def _flat_unsupported_reason(
    *,
    transport: Any,
    node_cls: Any,
    recovery: Any,
    trace_enabled: bool,
    ghost: bool,
    require: frozenset,
) -> Optional[str]:
    """Why the flat backend cannot host this configuration (None = it can).

    The one capability check of the flat backend: its kernel runs the
    synchronous, static-topology, crash-free automaton and nothing else.
    """
    from repro.core.mechanism import LeaseNode

    if transport is not None and not getattr(transport, "synchronous", True):
        return (
            "the flat backend runs the synchronous transport only; "
            "simulated stacks need the reference backend"
        )
    if node_cls is not LeaseNode:
        return (
            f"the flat backend has no node objects to subclass "
            f"({node_cls.__name__} needs the reference backend)"
        )
    if recovery is not None:
        return "RecoveryManager needs the reference backend"
    if trace_enabled:
        return "tracing (trace_enabled) needs the reference backend"
    if ghost:
        return "ghost logs (ghost) need the reference backend"
    if require:
        return (
            f"feature(s) {sorted(require)} need the reference backend "
            "(the flat backend is static-topology, synchronous-only, "
            "crash-free and not explorable)"
        )
    return None
