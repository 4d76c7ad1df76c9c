"""The :class:`RecoveryManager`: crash recovery for a set of nodes.

One implementation serves both clock domains (see DESIGN.md, "Fault model
and crash recovery").  The manager reads no host internals; its host hands
it the nodes, the trace and metrics sinks, the clock the nodes already use
and a "peer known down" check:

* in the simulator, :class:`~repro.core.runtime.NodeRuntime` builds it
  over every node with the virtual clock and ``runtime.is_down`` (the
  crashed set), lays its checkpoint and sweep ticks on a bounded timeline,
  and calls :meth:`handle_crash` / :meth:`handle_recover` around its own
  wire calls;
* in a ``serve`` process, :class:`~repro.net.server.NodeServer` builds it
  over the hosted nodes with ``HybridClock.tick`` and "the peer's process
  is inside the dial cooldown", ticks it from one periodic loop, persists
  what :meth:`checkpoint_now` returns, and restarts through
  :meth:`handle_recover`.

Responsibilities:

* **checkpoints** — :meth:`checkpoint_now` captures each live node's
  volatile state (:class:`~repro.recovery.checkpoint.Checkpoint`) and emits
  a ``checkpoint`` trace event;
* **crash/recover** — :meth:`handle_crash` notes the crash instant;
  :meth:`handle_recover` restores the last checkpoint, runs the
  lease-reconciliation round and renews the node's lease timers;
* **lease TTLs** — with ``lease_ttl`` set, per-edge lease timers expire a
  silent peer's leases (:meth:`LeaseNode.expire_taken` /
  ``expire_granted``) so a dead holder never wedges a combine; timers are
  renewed by any traffic on the edge (PaxosLease-style: leases must be
  refreshed to stay alive — this deliberately trades the paper's message
  optimality for liveness under crashes);
* **stuck rounds** — the same sweep re-probes the live awaited peers of a
  probe round that has stayed open a full TTL;
* **metrics** — ``crashes_total``, ``recoveries_total``,
  ``checkpoints_total``, ``lost_messages_total``,
  ``lease_expirations_total`` counters and a ``time_to_recover``
  histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.messages import Probe
from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.lease_ttl import LeaseExpiry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mechanism import LeaseNode
    from repro.obs.metrics import Counter, MetricsRegistry
    from repro.sim.trace import TraceLog

__all__ = ["RecoveryConfig", "RecoveryManager"]

#: Buckets for the time-to-recover histogram (virtual time units).
RECOVERY_BUCKETS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500)


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the crash-recovery subsystem.

    Attributes
    ----------
    checkpoint_interval:
        Time between periodic checkpoints of every live node.
    lease_ttl:
        When set, enable TTL lease expiry: a lease whose peer has been
        silent for ``lease_ttl`` time units expires locally (synthesized
        revoke/release), swept every half TTL.  ``None`` disables the
        sweeps.
    horizon:
        End of the simulator's periodic-work timeline.  Default: the fault
        plan's last scheduled event plus room for the last recovery to
        finish (see :meth:`RecoveryManager.horizon`), so the simulator
        still drains to quiescence after the last fault.
    """

    checkpoint_interval: float = 10.0
    lease_ttl: Optional[float] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.lease_ttl is not None and self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive when set")


class RecoveryManager:
    """Checkpointing, crash/recover handling, lease TTLs and stuck-round
    re-probes over a host's nodes.

    Parameters
    ----------
    nodes:
        node id -> ``LeaseNode``; the host's own map (it may grow, shrink
        or re-key under the manager).
    config:
        The :class:`RecoveryConfig`.
    trace / metrics:
        The host's trace log (TTL renewal rides its subscription) and
        metrics registry.
    clock:
        The clock the nodes use; read once per sweep and once per emitted
        event (a ``serve`` process stamps every event with its own
        ``HybridClock.tick``).
    is_down:
        ``is_down(node_id)``: whether the node is known to be down.

    Under :meth:`NodeRuntime.fork` the manager is deep-copied with its
    runtime, so ``clock`` and ``is_down`` must be bound methods of the
    runtime (a closure or ``set.__contains__`` would keep reading the
    original).
    """

    def __init__(
        self,
        nodes: Dict[int, "LeaseNode"],
        config: RecoveryConfig,
        *,
        trace: "TraceLog",
        metrics: "MetricsRegistry",
        clock: Callable[[], float],
        is_down: Callable[[int], bool],
    ) -> None:
        self.nodes = nodes
        self.config = config
        self.trace = trace
        self.metrics = metrics
        self.clock = clock
        self.is_down = is_down
        self.store = CheckpointStore()
        # ``checkpoints_total`` per node, looked up once: a registry lookup
        # canonicalizes a label dict, and captures run every interval.
        self._checkpoint_counters: Dict[int, "Counter"] = {}
        ttl = config.lease_ttl
        if ttl is not None and not trace.enabled:
            # TTL renewal rides the trace subscription (recv/deliver events
            # refresh the peer's timers); without tracing every lease would
            # silently expire at the first sweep.
            raise ValueError("lease_ttl requires a runtime with trace_enabled")
        self.expiry = LeaseExpiry(ttl) if ttl is not None else None
        # Half a TTL is both the sweep period and the granter side's extra
        # grace.  Lease traffic is one-directional (grants and updates flow
        # granter -> holder), so with symmetric TTLs the granter would time
        # out first — the unsafe order, leaving the holder serving a voided
        # lease.  The grace makes the holder expire first; its synthesized
        # Release then clears the granter side through the normal protocol
        # whenever the edge is connected, and the granter's own expiry is
        # the fallback for a dead or partitioned holder.
        self.sweep_interval = self.grace = ttl / 2 if ttl is not None else 0.0
        # Stuck-round detection state: for each open probe round (keyed
        # ``(node, root)``) the ``snt[root]`` set a sweep first saw it with
        # and when, and the last liveness re-probe per directed edge (paces
        # re-probes at one per TTL).  Edge traffic is no proxy for round
        # health — wire-level ACKs and retransmits keep flowing on a wedged
        # conversation — so the sweep watches round *age* instead.  Every
        # round installs a new ``snt`` set, so a round that closed and was
        # replaced between two sweeps restarts the age rather than
        # inheriting its predecessor's.
        self._round_seen: Dict[Tuple[int, int], Tuple[Optional[Set[int]], float]] = {}
        self._reprobed: Dict[Tuple[int, int], float] = {}
        #: Crash instants of currently-down nodes.
        self.crash_times: Dict[int, float] = {}
        #: Completed time-to-recover samples, in order.
        self.recovery_durations: List[float] = []
        trace.subscribe(self._on_trace)
        if self.expiry is not None:
            now = clock()
            for nid, node in nodes.items():
                for v in node.nbrs:
                    self.expiry.renew((nid, v), now)

    def horizon(self, last_fault: Optional[float]) -> float:
        """End of the simulator's tick timeline, given the last scheduled
        fault's time (``None`` without faults)."""
        if self.config.horizon is not None:
            return self.config.horizon
        if last_fault is None:
            return 0.0
        ttl = self.config.lease_ttl
        if ttl is None:
            return last_fault + self.config.checkpoint_interval
        # Past the last fault: a TTL plus the grace so the granter's expiry
        # still gets a sweep, then a full TTL and one sweep period so a
        # probe round wedged by that fault ages into the stuck-round
        # re-probe (detection needs first-seen + TTL).
        return last_fault + (ttl + self.grace + ttl + self.sweep_interval)

    # ----------------------------------------------------------- checkpoints
    def _checkpoint_tick(self) -> None:
        # The scheduled tick, a method of its own so the benchmark tracer
        # (benchmarks/suite/layers.py) can time it by name.
        self.checkpoint_now()

    def checkpoint_now(self) -> List[Checkpoint]:
        """Checkpoint every live node; returns the captures."""
        out: List[Checkpoint] = []
        for nid in sorted(self.nodes):
            if self.is_down(nid):
                continue
            now = self.clock()
            cp = Checkpoint.capture(self.nodes[nid], self.store.next_seq(nid), now)
            self.store.save(cp)
            self.trace.emit(now, "checkpoint", nid, seq=cp.seq)
            counter = self._checkpoint_counters.get(nid)
            if counter is None:
                counter = self._checkpoint_counters[nid] = self.metrics.counter(
                    "checkpoints_total", node=nid
                )
            counter.inc()
            out.append(cp)
        return out

    # --------------------------------------------------------- crash/recover
    def handle_crash(self, node_id: int) -> None:
        """Note a crash; the host black-holes the node's wire and drops its
        volatile state."""
        self.crash_times[node_id] = self.clock()
        self.metrics.counter("crashes_total", node=node_id).inc()

    def handle_recover(self, node_id: int) -> None:
        """Rejoin a restarted node: restore its last checkpoint in
        :attr:`store`, run the reconciliation round
        (:meth:`LeaseNode.recover_reconcile`) and renew its lease timers.
        The host reopens the node's wire first."""
        node = self.nodes[node_id]
        cp = self.store.latest(node_id)
        if cp is not None:
            cp.restore(node)
        node.recover_reconcile()
        now = self.clock()
        self.metrics.counter("recoveries_total", node=node_id).inc()
        t0 = self.crash_times.pop(node_id, None)
        if t0 is not None:
            ttr = now - t0
            self.recovery_durations.append(ttr)
            self.metrics.histogram(
                "time_to_recover", buckets=RECOVERY_BUCKETS
            ).observe(ttr)
        if self.expiry is not None:
            for v in node.nbrs:
                self.expiry.renew((node_id, v), now)
                self.expiry.renew((v, node_id), now)

    # ------------------------------------------------------------- lease TTL
    def _sweep_tick(self) -> None:
        # The scheduled tick, a method of its own so the benchmark tracer
        # (benchmarks/suite/layers.py) can time it by name.
        self.sweep()

    def sweep(self) -> None:
        """Expire leases whose peer has been silent longer than the TTL
        (holder before granter) and re-probe stuck rounds."""
        expiry = self.expiry
        if expiry is None:
            return
        ttl = expiry.ttl
        now = self.clock()
        for nid in sorted(self.nodes):
            if self.is_down(nid):
                continue
            node = self.nodes[nid]
            for v in list(node.nbrs):
                if node.taken.get(v, False) and not expiry.alive((nid, v), now):
                    node.expire_taken(v)
                    self.metrics.counter(
                        "lease_expirations_total", node=nid, side="taken"
                    ).inc()
                if node.granted.get(v, False) and not expiry.alive(
                    (nid, v), now - self.grace
                ):
                    node.expire_granted(v)
                    self.metrics.counter(
                        "lease_expirations_total", node=nid, side="granted"
                    ).inc()
            # Liveness for stuck probe rounds: a round whose probe (or
            # response) died on a partitioned or crashed edge stays open
            # forever — and wire traffic is no tell (ACKs and retransmits
            # keep flowing on a wedged conversation).  A healthy round
            # completes in a few RTTs, so any round still open a full TTL
            # after a sweep first saw it is stuck: re-probe its awaited
            # peers.  Re-probes pace at one per TTL per edge; duplicate
            # responses are idempotent (T4 discards the peer from every
            # open round on the first one).
            for root in sorted(node.pndg):
                awaited = node.snt.get(root)
                seen = self._round_seen.get((nid, root))
                if seen is None or seen[0] is not awaited:
                    seen = self._round_seen[(nid, root)] = (awaited, now)
                if now - seen[1] < ttl:
                    continue
                for w in sorted(awaited or ()):
                    if self.is_down(w):
                        continue  # reconcile heals this edge on recovery
                    last = self._reprobed.get((nid, w))
                    if last is not None and now - last < ttl:
                        continue
                    self._reprobed[(nid, w)] = now
                    self.trace.emit(self.clock(), "reprobe", nid, dst=w, root=root)
                    node.send(w, Probe())
        # Rounds that closed since the last sweep age out of the table.
        self._round_seen = {
            key: seen
            for key, seen in self._round_seen.items()
            if key[0] in self.nodes and key[1] in self.nodes[key[0]].pndg
        }

    # -------------------------------------------------------------- telemetry
    def _on_trace(self, ev: Any) -> None:
        if ev.kind == "delivery_failed":
            self.metrics.counter(
                "lost_messages_total", msg=ev.detail.get("msg", "?")
            ).inc()
            return
        if self.expiry is None:
            return
        # Traffic in either direction renews the edge's lease timers:
        # receives are evidence the peer was alive, and sends matter
        # because lease traffic is one-directional (a granter streaming
        # updates would otherwise never refresh its own granted side).
        if ev.kind in ("recv", "deliver"):
            src = ev.detail.get("src")
            if src is not None and src >= 0:
                self.expiry.renew((ev.node, src), ev.time)
        elif ev.kind == "send":
            dst = ev.detail.get("dst")
            if dst is not None and dst >= 0:
                self.expiry.renew((ev.node, dst), ev.time)
        elif ev.kind == "lease_acquired":
            self.expiry.renew((ev.node, ev.detail["source"]), ev.time)
        elif ev.kind == "lease_granted":
            self.expiry.renew((ev.node, ev.detail["grantee"]), ev.time)
