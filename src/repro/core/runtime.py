"""The shared node-runtime every execution engine drives.

Historically each engine (sequential, concurrent, multi-attribute,
dynamic) re-implemented the same plumbing: build a transport, wire a
per-node ``send`` callback, dispatch received messages to
``LeaseNode.on_message``, thread the telemetry objects through, record
:class:`~repro.obs.spans.RequestSpan` bookkeeping, and assert the
quiescent-state lemmas.  :class:`NodeRuntime` owns all of that exactly
once; the engines are thin *drivers* deciding only **when** requests are
initiated (run-to-quiescence vs. scheduled virtual times) and **what**
extra semantics ride along (batching accounting, topology changes).

The layering (see DESIGN.md):

.. code-block:: text

    driver       AggregationSystem | ConcurrentAggregationSystem
                 | MultiAttributeSystem | DynamicAggregationSystem
    runtime      NodeRuntime  (node map + Router, span/metrics hooks,
                 quiescence checking)
    policy       LeasePolicy (RWW, (a,b), ...)   [inside each LeaseNode]
    transport    build_transport(TransportConfig):
                 SynchronousNetwork | FaultyNetwork
                 | ReliableNetwork over FaultyNetwork
    telemetry    TraceLog / MetricsRegistry / RequestSpan  (threaded
                 through every layer above)

Wall-clock profiling is not threaded through:
:class:`~repro.obs.perf.PerfProfiler` attaches to the methods it times
(:meth:`Router.route` among them) from outside, so no runtime object
holds a reference to it.

Because the runtime builds its transport from a declarative
:class:`~repro.sim.transport.TransportConfig`, *any* engine composes with
*any* stack: multi-attribute batching over the concurrent model, dynamic
attach/detach over a faulty-but-healed wire, and so on — combinations the
bespoke wiring paths could not express.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Type

from repro.core.backend import RuntimeTelemetry
from repro.core.mechanism import LeaseNode
from repro.core.policies import LeasePolicy, RWWPolicy
from repro.obs.costmeter import CostMeter
from repro.obs.metrics import MetricsBridge, MetricsRegistry
from repro.obs.spans import RequestSpan
from repro.ops.monoid import AggregationOperator
from repro.ops.standard import SUM
from repro.sim.scheduler import Simulator
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.sim.transport import Transport, TransportConfig, build_transport
from repro.tree.topology import Tree
from repro.workloads.requests import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.manager import RecoveryManager

#: Builds a fresh policy instance for one node.
PolicyFactory = Callable[[], LeasePolicy]

#: ``node`` value of engine-level trace events (``quiescent``) that do not
#: belong to any single node.
SYSTEM_NODE = -1


def _sequential_time() -> float:
    """The sequential model's clock: every event happens at time 0."""
    return 0.0


class Router:
    """The node map and receive-side dispatch.

    One instance per runtime: the transport's ``receiver`` callback is
    :meth:`route`, which looks up the destination node and hands the
    message to its automaton.  Topology changes go through
    :meth:`add` / :meth:`remove` / :meth:`rename`.  The runtime binds
    :meth:`route` when it builds the transport, so a ``PerfProfiler``
    attached to ``Router.route`` times only runtimes built after the
    attach.
    """

    def __init__(self) -> None:
        self.nodes: Dict[int, LeaseNode] = {}

    def route(self, src: int, dst: int, message: Any) -> None:
        """Deliver ``message`` (sent by ``src``) to node ``dst``."""
        self.nodes[dst].on_message(src, message)

    def add(self, node: LeaseNode) -> LeaseNode:
        self.nodes[node.id] = node
        return node

    def remove(self, node_id: int) -> LeaseNode:
        return self.nodes.pop(node_id)

    def rename(self, old: int, new: int) -> LeaseNode:
        """Re-key node ``old`` as ``new`` (dense-id compaction)."""
        node = self.nodes.pop(old)
        node.id = new
        self.nodes[new] = node
        return node

    def __getitem__(self, node_id: int) -> LeaseNode:
        return self.nodes[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


class NodeRuntime(RuntimeTelemetry):
    """Everything the engines share: nodes, transport, telemetry, lemmas.

    Parameters
    ----------
    tree:
        The aggregation tree.
    op:
        The aggregation operator (default: :data:`~repro.ops.standard.SUM`).
    policy_factory:
        Zero-argument callable producing a fresh policy per node.
    transport:
        Declarative transport-stack description (default: the synchronous
        FIFO queue of the sequential model).
    ghost:
        Enable Section-5 ghost logs on every node.
    trace_enabled:
        Record structured trace events (also feeds the metrics bridge).
    seed:
        Engine seed; the transport inherits it unless its config pins one.
    node_cls:
        The node-automaton class (default :class:`LeaseNode`).  Injection
        point for instrumented or deliberately-broken subclasses — the
        model checker's mutation tests run a faulty ``LeaseNode`` through
        the stock runtime this way.
    """

    #: Backend-seam identity (see :func:`repro.core.backend.build_backend`).
    backend_name = "reference"

    def __init__(
        self,
        tree: Tree,
        op: AggregationOperator = SUM,
        policy_factory: PolicyFactory = RWWPolicy,
        transport: Optional[TransportConfig] = None,
        *,
        ghost: bool = False,
        trace_enabled: bool = False,
        seed: int = 0,
        node_cls: Type[LeaseNode] = LeaseNode,
        recovery: Optional[Any] = None,
        cost_accounting: bool = False,
    ) -> None:
        self.tree = tree
        self.op = op
        self.policy_factory = policy_factory
        self.config = transport if transport is not None else TransportConfig()
        self.trace = TraceLog(enabled=trace_enabled)
        self.metrics = MetricsRegistry()
        self.spans: List[RequestSpan] = []
        if trace_enabled:
            self.trace.subscribe(MetricsBridge(self.metrics))
        self.stats = MessageStats()
        #: Streaming observed-vs-OPT accountant (``cost_accounting=True``);
        #: engines feed it one request per initiation, in order.  Dropped
        #: on :meth:`set_topology` — the per-edge DP assumes a static tree.
        self.cost_meter: Optional[CostMeter] = (
            CostMeter(tree, self.stats) if cost_accounting else None
        )
        self.sim: Optional[Simulator] = (
            None if self.config.synchronous else Simulator()
        )
        self.router = Router()
        self.network: Transport = build_transport(
            self.config,
            tree,
            receiver=self.router.route,
            sim=self.sim,
            seed=seed,
            stats=self.stats,
            trace=self.trace,
            metrics=self.metrics,
        )
        self._ghost = ghost
        self.node_cls = node_cls
        #: Node timestamp source: the virtual clock, else the sequential
        #: model's constant 0.0.
        self._clock: Callable[[], float] = (
            self._read_clock if self.sim is not None else _sequential_time
        )
        self.crashed: set = set()
        self._failure_listeners: List[Callable[[List[Request]], None]] = []
        for i in tree.nodes():
            self.router.add(self._make_node(i, tree))
        # Scheduled faults (crash/recover/partition/heal in the FaultPlan)
        # are applied by the wire; the runtime listens so the node-level
        # consequences (volatile-state loss, reconciliation) follow.
        wire = getattr(self.network, "inner", self.network)
        if hasattr(wire, "add_fault_listener"):
            wire.add_fault_listener(self._on_scheduled_fault)
        #: The attached RecoveryManager, when crash recovery is enabled.
        self.recovery: Optional[RecoveryManager] = None
        if recovery is not None:
            from repro.recovery.manager import RecoveryManager

            self.recovery = RecoveryManager(
                self.nodes,
                recovery,
                trace=self.trace,
                metrics=self.metrics,
                clock=self._clock,
                is_down=self.is_down,
            )
            if self.sim is not None:
                self._schedule_recovery_ticks(self.recovery, self.sim)

    def _read_clock(self) -> float:
        # A bound method, not a closure: NodeRuntime.fork deep-copies
        # everything through one memo, and closures are atomic under
        # deepcopy (a cloned node would read the *original* sim's clock).
        return self.sim.now

    def _schedule_recovery_ticks(self, rec: "RecoveryManager", sim: Simulator) -> None:
        """Lay the recovery manager's checkpoint and TTL-sweep ticks onto
        the simulator up to its horizon: a bounded timeline, never a
        free-running timer, so the simulator still drains to quiescence."""
        events = getattr(getattr(self.config, "plan", None), "events", ())
        horizon = rec.horizon(max((ev.time for ev in events), default=None))
        t = rec.config.checkpoint_interval
        while t <= horizon:
            sim.schedule_at(t, rec._checkpoint_tick)
            t += rec.config.checkpoint_interval
        if rec.expiry is not None:
            t = rec.sweep_interval
            while t <= horizon:
                sim.schedule_at(t, rec._sweep_tick)
                t += rec.sweep_interval

    # ------------------------------------------------------------------ nodes
    @property
    def nodes(self) -> Dict[int, LeaseNode]:
        """node id -> :class:`LeaseNode` (the router's map)."""
        return self.router.nodes

    def _make_node(self, node_id: int, tree: Tree) -> LeaseNode:
        return self.node_cls(
            node_id,
            tree,
            self.op,
            self.policy_factory(),
            send=partial(self.network.send, node_id),
            trace=self.trace,
            ghost=self._ghost,
            clock=self._clock,
        )

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current time: virtual under a simulator, 0.0 in the sequential
        model."""
        if self.sim is not None:
            return self.sim.now
        return self._clock()

    def drain(self) -> None:
        """Run the transport to quiescence.

        Synchronous stacks drain their FIFO queue; simulated stacks run
        the event heap dry (delivering messages, retransmissions and
        timers alike).
        """
        if self.sim is not None:
            self.sim.run()
        else:
            self.network.run_to_quiescence()

    def is_quiescent(self) -> bool:
        return self.network.is_quiescent()

    # ----------------------------------------------------------- verification
    def state_snapshot(self) -> Tuple[Any, ...]:
        """Canonical, hashable rendering of the full runtime state: every
        node's :meth:`LeaseNode.state_snapshot` plus the in-flight message
        queue.

        Only defined for the synchronous transport (the model checker's
        execution model) — latency-ful stacks carry scheduler state the
        snapshot cannot see.
        """
        pending = getattr(self.network, "pending_snapshot", None)
        if pending is None:
            raise RuntimeError(
                "state_snapshot requires a transport with pending_snapshot "
                "(the synchronous or reliable stacks)"
            )
        snap: Tuple[Any, ...] = (
            tuple(self.nodes[i].state_snapshot() for i in sorted(self.nodes)),
            pending(),
        )
        if self.crashed:
            snap += (("crashed", tuple(sorted(self.crashed))),)
        return snap

    def fork(self) -> "NodeRuntime":
        """An independent deep copy of this runtime — nodes, policies,
        ghost logs, queued messages, and (on simulated stacks) the
        scheduler heap with its pending timers included.

        The model checker forks a runtime at every branching point of the
        delivery schedule; mutating one branch never disturbs another.
        Bound methods and partials are deep-copied through the shared memo,
        so the clone's nodes send into the clone's transport, the clone's
        transport routes into the clone's router, and the clone's timers
        fire into the clone's layers — every callback the stack schedules
        is a bound method or partial for exactly this reason (closures are
        atomic under deepcopy and would alias the original).
        """
        return copy.deepcopy(self)

    # -------------------------------------------------------------- requests
    #
    # The engines initiate requests through these two methods (the
    # Backend protocol's driving surface) rather than reaching into the
    # node objects, so backends without per-node objects — the flat
    # backend — can host the same engines.  Telemetry
    # (emit_request_begin / finish_span / emit_quiescent) is inherited
    # from :class:`~repro.core.backend.RuntimeTelemetry`.

    def submit_write(self, request: Request) -> None:
        """Initiate a write (T2) at ``request.node``; no draining."""
        self.nodes[request.node].write(request)

    def submit_combine(
        self, request: Request, on_complete: Callable[[Request], None]
    ) -> None:
        """Initiate a (scoped) combine (T1) at ``request.node``; no draining."""
        node = self.nodes[request.node]
        if request.scope is None:
            node.begin_combine(request, on_complete)
        else:
            node.begin_scoped_combine(request, on_complete)

    # -------------------------------------------------------- crash recovery
    def add_failure_listener(self, fn: Callable[[List[Request]], None]) -> None:
        """Register a callback receiving the requests a crash killed (their
        completion callbacks will never fire); engines close spans here."""
        self._failure_listeners.append(fn)

    def _on_scheduled_fault(self, ev: Any) -> None:
        """Wire-level scheduled fault -> node-level consequence.

        The wire (FaultyNetwork) already black-holed the traffic and
        emitted the lifecycle trace event; here the node loses its volatile
        state (crash) or reconciles (recover).
        """
        if ev.kind == "crash":
            self.crash(ev.node, emit_trace=False)
        elif ev.kind == "recover":
            self.recover(ev.node, emit_trace=False)

    def is_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is crashed (the recovery manager's down
        check; a bound method so it follows :meth:`fork`)."""
        return node_id in self.crashed

    def crash(self, node_id: int, *, emit_trace: bool = True) -> List[Request]:
        """Crash a node: black-hole its traffic and lose its volatile state.

        Returns the requests that died with it (failure listeners are
        notified too).  Idempotent — crashing a crashed node is a no-op.
        ``emit_trace`` is off when the wire already emitted ``node_crash``
        (the scheduled-fault path).
        """
        if node_id in self.crashed:
            return []
        if not hasattr(self.network, "crash_node"):
            raise RuntimeError(
                "this transport does not support crash faults (needs the "
                "synchronous stack or a simulated one)"
            )
        if self.recovery is not None:
            self.recovery.handle_crash(node_id)
        self.crashed.add(node_id)
        if emit_trace:
            self.trace.emit(self.now, "node_crash", node_id)
        self.network.crash_node(node_id)
        failed = self.nodes[node_id].crash_volatile()
        if failed:
            for fn in self._failure_listeners:
                fn(failed)
        return failed

    def recover(self, node_id: int, *, emit_trace: bool = True) -> None:
        """Recover a crashed node: reopen the wire, reset the reliable
        layer's conversations on its edges, and run the node's lease
        reconciliation round (see :meth:`LeaseNode.recover_reconcile`) —
        through the :class:`~repro.recovery.manager.RecoveryManager`,
        which restores the last checkpoint first, when one is attached."""
        if node_id not in self.crashed:
            return
        self.crashed.discard(node_id)
        if emit_trace:
            self.trace.emit(self.now, "node_recover", node_id)
        self.network.recover_node(node_id)
        if hasattr(self.network, "reset_edges_for"):
            self.network.reset_edges_for(node_id)
        if self.recovery is not None:
            self.recovery.handle_recover(node_id)
        else:
            self.nodes[node_id].recover_reconcile()

    # ------------------------------------------------------------- topology
    def set_topology(self, tree: Tree) -> None:
        """Swap the tree under the runtime (dynamic engines, at quiescence).

        Re-keys the transport's per-edge state and repoints every node's
        topology reference.  Neighbor-set and per-neighbor protocol state
        changes are the caller's job (via
        :meth:`LeaseNode.attach_neighbor` / ``detach_neighbor`` /
        ``rename_neighbor``) — they are protocol decisions, not plumbing.
        """
        self.tree = tree
        # The cost meter's per-edge DP is defined over one static tree;
        # membership churn invalidates it, so accounting stops here.
        self.cost_meter = None
        self.network.set_topology(tree)
        for node in self.router.nodes.values():
            node.tree = tree

    def add_node(self, node_id: int, tree: Optional[Tree] = None) -> LeaseNode:
        """Create and register a fresh node (dynamic attach)."""
        return self.router.add(self._make_node(node_id, tree if tree is not None else self.tree))

    def remove_node(self, node_id: int) -> LeaseNode:
        """Unregister a node (dynamic detach)."""
        return self.router.remove(node_id)

    def rename_node(self, old: int, new: int) -> LeaseNode:
        """Re-key a node and rebind its precomputed send callables."""
        node = self.router.rename(old, new)
        node.rebind_send(partial(self.network.send, new))
        if old in self.crashed:
            self.crashed.discard(old)
            self.crashed.add(new)
        if hasattr(self.network, "rename_node"):
            self.network.rename_node(old, new)
        return node

    # ------------------------------------------------------------ invariants
    def check_quiescent_invariants(self) -> None:
        """Assert the paper's quiescent-state lemmas on the current state."""
        check_quiescent_invariants(self.tree, self.nodes, self.network)

    def lease_graph_edges(self) -> List[tuple]:
        """Directed edges (u, v) with ``u.granted[v]`` — the lease graph
        G(Q) of Section 3.2 for the current quiescent state."""
        return [
            (u, v)
            for u in self.tree.nodes()
            for v in self.nodes[u].nbrs
            if self.nodes[u].granted[v]
        ]


def check_quiescent_invariants(tree: Tree, nodes: Dict[int, LeaseNode], network) -> None:
    """Assert the paper's quiescent-state lemmas (3.1, 3.2, 3.4) plus
    transport quiescence for any engine's current state.

    Shared by every engine — the lemmas hold in every quiescent state
    regardless of execution model, and (with the reliability layer) must
    be restored at drain even after channel faults.

    * Lemma 3.1: ``u.taken[v] == v.granted[u]`` for every edge.
    * Lemma 3.2: ``u.granted[v]`` implies ``u.taken[w]`` for all other
      neighbors ``w``.
    * Lemma 3.4: every ``pndg`` and ``snt`` is empty.
    * Transport quiescence: no message in transit.
    """
    if not network.is_quiescent():
        raise AssertionError("network not quiescent: messages in transit")
    for u, v in tree.directed_edges():
        nu, nv = nodes[u], nodes[v]
        if nu.taken[v] != nv.granted[u]:
            raise AssertionError(
                f"Lemma 3.1 violated on edge ({u},{v}): "
                f"{u}.taken[{v}]={nu.taken[v]} but {v}.granted[{u}]={nv.granted[u]}"
            )
    for u in tree.nodes():
        nu = nodes[u]
        for v in nu.nbrs:
            if nu.granted[v]:
                for w in nu.nbrs:
                    if w != v and not nu.taken[w]:
                        raise AssertionError(
                            f"Lemma 3.2 violated at {u}: granted[{v}] "
                            f"but taken[{w}] is false"
                        )
        if not nu.quiescent_state_ok():
            raise AssertionError(f"Lemma 3.4 violated at {u}: pndg/snt not empty")


__all__ = [
    "NodeRuntime",
    "Router",
    "PolicyFactory",
    "SYSTEM_NODE",
    "check_quiescent_invariants",
]
