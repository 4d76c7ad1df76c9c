"""Execution engines driving the lease mechanism.

* :class:`AggregationSystem` — the **sequential** model of Section 2: each
  request is initiated in a quiescent state and runs to quiescence before
  the next begins.  All of the paper's competitive-analysis results are
  stated for this model.
* :class:`ConcurrentAggregationSystem` — the **concurrent** model of
  Section 5: requests are initiated at arbitrary virtual times over a
  latency-ful network; combines may overlap with writes and each other.
  This is the setting of the causal-consistency theorem (Theorem 4).

Both engines are thin *drivers* over one shared execution backend,
selected by name through :func:`~repro.core.backend.build_backend`: the
``reference`` backend (:class:`~repro.core.runtime.NodeRuntime`, which
owns the node map, the message routing, the telemetry hooks and the
quiescent-invariant battery) or, for the sequential engine only, the
``flat`` backend (:class:`~repro.flat.runtime.FlatRuntime`, the
vectorized engine for large synchronous runs).  The transport underneath
is assembled by :func:`~repro.sim.transport.build_transport` from a declarative
:class:`~repro.sim.transport.TransportConfig`, so either driver runs over
any stack: the plain wire, a lossy one
(:func:`faulty_concurrent_system`), or a lossy-but-healed one
(:func:`reliable_concurrent_system`).  Even the sequential driver can run
over a simulated stack — each request simply drains the event heap — which
is what lets the multi-attribute and dynamic layers compose with faults
and reliability.

Telemetry (:mod:`repro.obs`) is threaded through the runtime: every run
fills a :class:`~repro.obs.metrics.MetricsRegistry` (request counters,
messages-per-request and combine-latency histograms) and records one
:class:`~repro.obs.spans.RequestSpan` per request; with tracing enabled the
engines additionally emit typed ``combine_begin``/``span``/``quiescent``
events — the feed the live lemma monitors and the JSONL exporter run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.backend import Backend, BackendUnsupported, build_backend
from repro.core.mechanism import LeaseNode
from repro.core.policies import RWWPolicy
from repro.core.runtime import (
    SYSTEM_NODE,
    PolicyFactory,
    check_quiescent_invariants,
)
from repro.obs.costmeter import CostMeter, CostReport
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import RequestSpan
from repro.ops.monoid import AggregationOperator
from repro.ops.standard import SUM
from repro.sim.channel import LatencyModel
from repro.sim.faults import FaultPlan
from repro.sim.reliability import ReliabilityConfig
from repro.sim.scheduler import Simulator
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.sim.transport import Transport, TransportConfig
from repro.tree.topology import Tree
from repro.workloads.requests import COMBINE, WRITE, Request

__all__ = [
    "AggregationSystem",
    "BackendUnsupported",
    "CombineTimeout",
    "ConcurrentAggregationSystem",
    "ExecutionResult",
    "PolicyFactory",
    "SYSTEM_NODE",
    "ScheduledRequest",
    "check_quiescent_invariants",
    "faulty_concurrent_system",
    "reliable_concurrent_system",
    "run_with_faults",
]


@dataclass(frozen=True)
class CombineTimeout:
    """A combine the reliability watchdog failed fast instead of hanging.

    Produced by :class:`ConcurrentAggregationSystem` when
    ``reliability.combine_deadline`` is set and a combine is still
    incomplete that long after initiation (e.g. because the reliable layer's
    retry budget ran out on a dead channel).  The request itself is marked
    ``failed = True``.
    """

    request: Request
    node: int
    initiated_at: float
    deadline: float


@dataclass
class ExecutionResult:
    """Outcome of running a request sequence through an engine.

    Attributes
    ----------
    requests:
        The executed requests in initiation order, with ``retval`` /
        ``index`` / timestamps filled in.
    stats:
        Per-directed-edge, per-kind message counts.
    trace:
        The structured trace (empty unless tracing was enabled).
    nodes:
        The live node objects (for state inspection and ghost logs).
    tree:
        The topology the run used.
    timeouts:
        :class:`CombineTimeout` outcomes recorded by the reliability
        watchdog (empty unless a deadline fired).
    spans:
        One :class:`~repro.obs.spans.RequestSpan` per completed (or
        failed-fast) request, in completion order.
    metrics:
        The run's :class:`~repro.obs.metrics.MetricsRegistry`.
    cost:
        Observed-vs-OPT accounting from the streaming
        :class:`~repro.obs.costmeter.CostMeter` (``None`` unless the
        engine ran with ``cost_accounting=True``).
    """

    requests: List[Request]
    stats: MessageStats
    trace: TraceLog
    nodes: Dict[int, LeaseNode]
    tree: Tree
    timeouts: List["CombineTimeout"] = field(default_factory=list)
    spans: List[RequestSpan] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    cost: Optional[CostReport] = None

    @property
    def total_messages(self) -> int:
        """The paper's cost ``C_A(σ)`` for this run."""
        return self.stats.total

    def combine_results(self) -> List[Any]:
        """Retvals of the combine requests, in initiation order."""
        return [q.retval for q in self.requests if q.op == COMBINE]

    def failed_requests(self) -> List[Request]:
        """Requests the engine gave up on (watchdog timeouts, hung combines)."""
        return [q for q in self.requests if q.failed]

    def ghost_logs(self) -> Dict[int, Any]:
        """node id -> :class:`~repro.core.ghost.GhostLog` (ghost runs only)."""
        out = {}
        for i, node in self.nodes.items():
            if node.ghost is not None:
                out[i] = node.ghost
        return out


class _RuntimeDriver:
    """Delegation surface every engine shares over its execution backend.

    The backend (the :class:`~repro.core.runtime.NodeRuntime` reference
    implementation or the flat engine, selected through
    :func:`~repro.core.backend.build_backend`) owns the state; the engine
    exposes the historical public attributes (``tree``, ``nodes``,
    ``network``, ``stats``, ``trace``, ``metrics``, ``spans``, ``sim``)
    as read-only views onto it.
    """

    runtime: Backend
    executed: List[Request]

    @property
    def backend_name(self) -> str:
        """Which execution backend is driving this engine
        (``"reference"`` or ``"flat"``)."""
        return self.runtime.backend_name

    @property
    def tree(self) -> Tree:
        return self.runtime.tree

    @property
    def op(self) -> AggregationOperator:
        return self.runtime.op

    @property
    def trace(self) -> TraceLog:
        return self.runtime.trace

    @property
    def metrics(self) -> MetricsRegistry:
        return self.runtime.metrics

    @property
    def spans(self) -> List[RequestSpan]:
        return self.runtime.spans

    @property
    def stats(self) -> MessageStats:
        return self.runtime.stats

    @property
    def network(self) -> Transport:
        return self.runtime.network

    @property
    def nodes(self) -> Dict[int, LeaseNode]:
        return self.runtime.nodes

    @property
    def sim(self) -> Optional[Simulator]:
        return self.runtime.sim

    @property
    def cost_meter(self) -> Optional[CostMeter]:
        return self.runtime.cost_meter

    def result(self) -> ExecutionResult:
        """Snapshot the execution outcome so far."""
        meter = self.runtime.cost_meter
        return ExecutionResult(
            requests=list(self.executed),
            stats=self.runtime.stats,
            trace=self.runtime.trace,
            nodes=self.runtime.nodes,
            tree=self.runtime.tree,
            timeouts=list(getattr(self, "timeouts", ())),
            spans=list(self.runtime.spans),
            metrics=self.runtime.metrics,
            cost=meter.report() if meter is not None else None,
        )

    def check_quiescent_invariants(self) -> None:
        """Assert the paper's quiescent-state lemmas on the current state.

        * Lemma 3.1: ``u.taken[v] == v.granted[u]`` for every edge.
        * Lemma 3.2: ``u.granted[v]`` implies ``u.taken[w]`` for all other
          neighbors ``w``.
        * Lemma 3.4: every ``pndg`` and ``snt`` is empty.
        * Transport quiescence: no message in transit.
        """
        self.runtime.check_quiescent_invariants()

    def lease_graph_edges(self) -> List[tuple]:
        """Directed edges (u, v) with ``u.granted[v]`` — the lease graph
        G(Q) of Section 3.2 for the current quiescent state."""
        return self.runtime.lease_graph_edges()


class AggregationSystem(_RuntimeDriver):
    """Sequential execution engine (Section 2's quiescent-state model).

    Parameters
    ----------
    tree:
        The aggregation tree.
    op:
        The aggregation operator (default: :data:`~repro.ops.standard.SUM`).
    policy_factory:
        Zero-argument callable producing a fresh policy per node
        (default: :class:`~repro.core.policies.RWWPolicy`).
    ghost:
        Enable Section-5 ghost logs.
    trace_enabled:
        Record structured trace events (also feeds the metrics bridge and
        any attached lemma monitors).
    transport:
        Transport-stack description (default: the synchronous FIFO queue).
        A simulated stack also works: each request then drains the event
        heap, so the sequential model composes with latency, faults and
        the reliability layer.
    seed:
        Engine seed, inherited by the transport unless its config pins one.
    backend:
        Execution backend name — ``"reference"`` (the default
        :class:`~repro.core.runtime.NodeRuntime`) or ``"flat"`` (the
        vectorized engine in :mod:`repro.flat`).  The flat backend hosts
        synchronous, static-topology runs without tracing or ghost logs
        only and raises :class:`~repro.core.backend.BackendUnsupported`
        otherwise.

    Examples
    --------
    >>> from repro.tree import path_tree
    >>> from repro.workloads import write, combine
    >>> sys_ = AggregationSystem(path_tree(3))
    >>> _ = sys_.execute(write(0, 5.0))
    >>> sys_.execute(combine(2)).retval
    5.0
    """

    def __init__(
        self,
        tree: Tree,
        op: AggregationOperator = SUM,
        policy_factory: PolicyFactory = RWWPolicy,
        ghost: bool = False,
        trace_enabled: bool = False,
        transport: Optional[TransportConfig] = None,
        seed: int = 0,
        cost_accounting: bool = False,
        backend: str = "reference",
    ) -> None:
        self.runtime = build_backend(
            backend,
            tree,
            op=op,
            policy_factory=policy_factory,
            transport=transport,
            ghost=ghost,
            trace_enabled=trace_enabled,
            seed=seed,
            cost_accounting=cost_accounting,
        )
        self.executed: List[Request] = []

    # --------------------------------------------------------------- driving
    def execute(self, request: Request) -> Request:
        """Execute one request to quiescence and return it (retval filled).

        Telemetry rides along: a ``combine_begin`` event stamped with the
        expected probe frontier (Lemma 3.3), a :class:`RequestSpan` with
        exact message attribution (sequential runs have one request in
        flight at a time), and a ``quiescent`` event once the network has
        drained — the hook the live lemma monitors check on.
        """
        rt = self.runtime
        if not rt.is_quiescent():
            raise RuntimeError("request initiated while messages are in transit")
        req_id = len(self.executed)
        m0 = rt.stats.total
        mark = rt.trace.mark()
        start = rt.now
        rt.emit_request_begin(req_id, request)
        if request.op == WRITE:
            rt.submit_write(request)
        elif request.op == COMBINE:
            done: List[Request] = []
            rt.submit_combine(request, done.append)
            rt.drain()
            if not done:
                raise RuntimeError(
                    f"combine at node {request.node} did not complete at quiescence"
                )
        else:
            raise ValueError(f"cannot execute op {request.op!r}")
        rt.drain()
        self.executed.append(request)
        rt.finish_span(req_id, request, start=start, end=rt.now, m0=m0, mark=mark)
        rt.emit_quiescent()
        return request

    def run(self, sequence: Sequence[Request]) -> ExecutionResult:
        """Execute a whole sequence sequentially."""
        for q in sequence:
            self.execute(q)
        return self.result()


@dataclass(order=True)
class ScheduledRequest:
    """A request to initiate at a given virtual time (concurrent engine)."""

    time: float
    request: Request = field(compare=False)


class ConcurrentAggregationSystem(_RuntimeDriver):
    """Concurrent execution engine over a latency-ful FIFO network.

    Requests are initiated at scheduled virtual times; combines complete
    whenever their probe rounds finish.  Ghost logs default to on because
    this engine exists chiefly for the causal-consistency experiments.

    With ``reliability=ReliabilityConfig(...)`` the transport is a
    :class:`~repro.sim.reliability.ReliableNetwork` (ACKs, retransmission,
    in-order release) and, when ``combine_deadline`` is set, every combine
    gets a watchdog: if it is still incomplete at the deadline it is failed
    fast with a structured :class:`CombineTimeout` instead of hanging the
    run.  Fault injection composes through ``transport`` (see
    :func:`faulty_concurrent_system`), which then carries the latency and
    reliability layers itself: passing ``latency`` or ``reliability``
    beside it raises ``ValueError``.  The concurrent model needs the
    event heap, so this engine always runs on the reference backend.
    """

    def __init__(
        self,
        tree: Tree,
        op: AggregationOperator = SUM,
        policy_factory: PolicyFactory = RWWPolicy,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        ghost: bool = True,
        trace_enabled: bool = False,
        reliability: Optional[ReliabilityConfig] = None,
        transport: Optional[TransportConfig] = None,
        recovery: Optional[Any] = None,
        cost_accounting: bool = False,
    ) -> None:
        if transport is None:
            transport = TransportConfig.simulated(latency=latency, reliability=reliability)
        elif latency is not None or reliability is not None:
            raise ValueError(
                "latency= and reliability= conflict with transport=, which "
                "describes the whole stack; set them in its TransportConfig"
            )
        if transport.synchronous:
            raise ValueError("the concurrent engine needs a simulated transport stack")
        self.runtime = build_backend(
            "reference",
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
        self.reliability = transport.reliability
        self.timeouts: List[CombineTimeout] = []
        self.executed: List[Request] = []
        self._open_spans: Dict[int, Dict[str, Any]] = {}
        self._outstanding = 0
        # A crash kills the victim node's open requests; close their spans
        # with a structured failure cause instead of leaving them hanging.
        self.runtime.add_failure_listener(self._on_crash_failures)

    def _on_crash_failures(self, failed: List[Request]) -> None:
        """Close the spans of combines a node crash killed (their completion
        callbacks will never fire)."""
        for q in failed:
            q.failed = True
            for req_id, info in list(self._open_spans.items()):
                if info["request"] is q:
                    self._close_span(req_id, failure="crash")
                    self._outstanding -= 1
                    break

    def _initiate(self, request: Request) -> None:
        rt = self.runtime
        request.initiated_at = rt.now
        req_id = len(self.executed)
        self.executed.append(request)
        if request.node in rt.crashed:
            # Initiating at a down node: fail fast with a structured cause
            # (its traffic would only black-hole and hang the run).
            request.failed = True
            rt.emit_request_begin(req_id, request, overlapped=True)
            rt.finish_span(
                req_id,
                request,
                start=request.initiated_at,
                end=rt.now,
                m0=rt.stats.total,
                overlapped=True,
                failure="node_down",
            )
            return
        # A new initiation makes message attribution inexact for every span
        # still open (they now share the goodput ledger).
        for info in self._open_spans.values():
            info["overlapped"] = True
        overlapped = self._outstanding > 0 or not rt.is_quiescent()
        m0 = rt.stats.total
        mark = rt.trace.mark()
        rt.emit_request_begin(req_id, request, overlapped=overlapped)
        if request.op == WRITE:
            rt.submit_write(request)
            # Update relays propagate after the write returns; the span
            # only sees the initiating fan-out, so flag any write whose
            # traffic mingles with in-flight messages.
            rt.finish_span(
                req_id,
                request,
                start=request.initiated_at,
                end=rt.now,
                m0=m0,
                overlapped=overlapped or not rt.is_quiescent(),
            )
        elif request.op == COMBINE:
            self._outstanding += 1
            self._open_spans[req_id] = {
                "request": request,
                "m0": m0,
                "mark": mark,
                "start": rt.now,
                "overlapped": overlapped,
            }
            deadline = (
                self.reliability.combine_deadline if self.reliability is not None else None
            )
            state = {"done": False, "timed_out": False}

            def done(_req: Request) -> None:
                state["done"] = True
                if not state["timed_out"]:
                    if req_id not in self._open_spans:
                        return  # already closed (e.g. killed by a crash)
                    if self._outstanding > 1:
                        info = self._open_spans.get(req_id)
                        if info is not None:
                            info["overlapped"] = True
                    self._close_span(req_id)
                    self._outstanding -= 1

            if deadline is not None:
                deadline_at = rt.now + deadline

                def watchdog(q: Request = request) -> None:
                    if state["done"] or state["timed_out"]:
                        return
                    if req_id not in self._open_spans:
                        return  # already closed (e.g. killed by a crash)
                    state["timed_out"] = True
                    q.failed = True
                    self._close_span(req_id, failure="timeout")
                    self._outstanding -= 1
                    self.timeouts.append(
                        CombineTimeout(
                            request=q,
                            node=q.node,
                            initiated_at=q.initiated_at,
                            deadline=deadline_at,
                        )
                    )
                    rt.trace.emit(
                        rt.now, "combine_timeout", q.node, deadline=deadline_at
                    )

                rt.sim.schedule(deadline, watchdog)
            rt.submit_combine(request, done)
        else:
            raise ValueError(f"cannot execute op {request.op!r}")

    def _close_span(self, req_id: int, failure: Optional[str] = None) -> None:
        """Finalize the span of an open combine (normal, timeout, or hung)."""
        info = self._open_spans.pop(req_id, None)
        if info is None:
            return
        self.runtime.finish_span(
            req_id,
            info["request"],
            start=info["start"],
            end=self.runtime.now,
            m0=info["m0"],
            mark=info["mark"],
            overlapped=info["overlapped"],
            failure=failure,
        )

    def run(self, schedule: Sequence[ScheduledRequest]) -> ExecutionResult:
        """Initiate every scheduled request and run the network to drain.

        Without a reliability watchdog a combine that never completes is a
        hard error (it indicates a protocol or channel bug).  With
        ``reliability.combine_deadline`` set, such combines are failed fast
        and reported through ``ExecutionResult.timeouts`` /
        ``Request.failed`` instead.
        """
        rt = self.runtime
        for item in schedule:
            rt.sim.schedule_at(item.time, lambda q=item.request: self._initiate(q))
        rt.sim.run()
        if self._outstanding:
            raise RuntimeError(f"{self._outstanding} combine(s) never completed")
        if not rt.is_quiescent():
            raise RuntimeError("network failed to drain")
        rt.emit_quiescent()
        return self.result()


# --------------------------------------------------------------------------
# Fault-injection entry points.  These live with the engine (they build
# ConcurrentAggregationSystem instances); the sim layer stays free of core
# imports — transports are composed via TransportConfig like everywhere else.
# --------------------------------------------------------------------------


def faulty_concurrent_system(
    tree: Tree,
    plan: FaultPlan,
    op: Optional[AggregationOperator] = None,
    policy_factory: Optional[PolicyFactory] = None,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
    ghost: bool = True,
    reliability: Optional[ReliabilityConfig] = None,
    trace_enabled: bool = False,
    recovery: Optional[Any] = None,
    cost_accounting: bool = False,
) -> ConcurrentAggregationSystem:
    """A :class:`ConcurrentAggregationSystem` whose transport is lossy.

    With ``reliability=None`` (the raw fault-injection mode) the transport
    is a bare :class:`~repro.sim.faults.FaultyNetwork`: combines that lose
    their probe or response messages never complete — run with
    :func:`run_with_faults`, which tolerates and marks the hung requests.

    With ``reliability=ReliabilityConfig(...)`` the lossy wire is wrapped in
    a :class:`~repro.sim.reliability.ReliableNetwork`, restoring the paper's
    reliable-FIFO contract end-to-end; the system can then be driven with
    the ordinary :meth:`ConcurrentAggregationSystem.run`.  Either way
    ``system.network.faults`` holds the injected-fault log.

    The transport seed is ``seed + 1`` (the historical convention keeping
    fault-run latency streams distinct from the fault-free baseline's).
    """
    config = TransportConfig.simulated(
        latency=latency,
        plan=plan,
        reliability=reliability,
        seed=seed + 1,
    )
    return ConcurrentAggregationSystem(
        tree,
        op=op if op is not None else SUM,
        policy_factory=policy_factory if policy_factory is not None else RWWPolicy,
        seed=seed,
        ghost=ghost,
        trace_enabled=trace_enabled,
        transport=config,
        recovery=recovery,
        cost_accounting=cost_accounting,
    )


def reliable_concurrent_system(
    tree: Tree,
    plan: FaultPlan,
    config: Optional[ReliabilityConfig] = None,
    op: Optional[AggregationOperator] = None,
    policy_factory: Optional[PolicyFactory] = None,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
    ghost: bool = True,
    trace_enabled: bool = False,
    recovery: Optional[Any] = None,
    cost_accounting: bool = False,
) -> ConcurrentAggregationSystem:
    """A concurrent system whose lossy transport is healed by a
    :class:`~repro.sim.reliability.ReliableNetwork` — shorthand for
    :func:`faulty_concurrent_system` with ``reliability`` set."""
    return faulty_concurrent_system(
        tree,
        plan,
        op=op,
        policy_factory=policy_factory,
        latency=latency,
        seed=seed,
        ghost=ghost,
        reliability=config if config is not None else ReliabilityConfig(),
        trace_enabled=trace_enabled,
        recovery=recovery,
        cost_accounting=cost_accounting,
    )


def run_with_faults(system: ConcurrentAggregationSystem, schedule):
    """Run a faulty system to network drain, tolerating hung combines.

    Returns ``(result, hung)`` where ``hung`` is the list of combine
    requests that never completed.  Each is explicitly marked
    ``q.failed = True`` so a hung combine is never mistaken for one that
    legitimately returned ``None`` (they also keep ``q.index == -1``).
    """
    for item in schedule:
        system.sim.schedule_at(item.time, lambda q=item.request: system._initiate(q))
    system.sim.run()
    hung = [q for q in system.executed if q.op == COMBINE and q.index < 0 and not q.failed]
    for q in hung:
        q.failed = True
    for req_id in list(system._open_spans):
        system._close_span(req_id, failure="hung")
    system._outstanding = 0
    return system.result(), hung
