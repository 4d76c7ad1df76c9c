"""Reliable delivery over lossy channels: ACKs, retransmission, reordering.

The paper assumes *reliable FIFO* channels between neighbors; every
guarantee — strict consistency, Theorem 4's causal consistency, the Figure 2
cost decomposition — is proven under that assumption, and the
fault-injection experiments (:mod:`repro.sim.faults`) show the mechanism
genuinely depends on it: one dropped probe hangs a combine forever.

:class:`ReliableNetwork` *earns* the assumption instead of assuming it.  It
wraps the lossy :class:`~repro.sim.faults.FaultyNetwork` with the classic
sliding-window recovery machinery, restoring the reliable-FIFO contract
end-to-end so the unmodified Figure-1 node automaton runs correctly over
channels that drop, duplicate and reorder:

* **per-directed-edge sequence numbers** — every logical message is wrapped
  in a :class:`Segment` carrying a monotone per-edge ``seq``;
* **receiver-side dedup + reorder buffering** — segments are released to the
  node automaton strictly in ``seq`` order; duplicates (from the channel or
  from retransmissions) are suppressed, out-of-order arrivals buffered;
* **cumulative ACKs** — every segment arrival is answered with an
  :class:`Ack` carrying the highest in-order sequence received; ACKs travel
  over the same lossy channel and may themselves be lost (retransmission
  covers that);
* **timeout-driven retransmission** — each unacknowledged segment holds a
  :class:`~repro.sim.scheduler.Timer`; on expiry it is retransmitted with
  exponential backoff up to a configurable retry budget, after which the
  sender gives up and records a structured :class:`DeliveryFailure`.

Everything is driven by the :class:`~repro.sim.scheduler.Simulator` virtual
clock, so runs stay deterministic for a given seed and
:class:`~repro.sim.faults.FaultPlan`.

Accounting keeps the paper's cost metric honest: each logical message is
recorded **once** as goodput (:meth:`MessageStats.record`) no matter how many
times its segment is retransmitted, while retransmits, ACKs and suppressed
duplicates go to the separate overhead ledger
(:meth:`MessageStats.record_overhead`).  A fault-free run and a
reliability-recovered faulty run of the same schedule therefore report the
same goodput — the competitive-ratio numbers stay comparable — with the
recovery cost visible alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.channel import LatencyModel
from repro.sim.faults import FaultLog, FaultPlan, FaultyNetwork
from repro.sim.network import Receiver
from repro.sim.scheduler import SimClock, Simulator, Timer
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree
from repro.util.canon import canonical_value

Edge = Tuple[int, int]


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs of the reliable-delivery layer.

    Attributes
    ----------
    base_timeout:
        Initial retransmission timeout for a fresh segment.  Should exceed
        one round-trip (data + ACK) of the underlying latency model;
        premature timeouts only cost overhead, never correctness.
    backoff:
        Multiplicative factor applied to the timeout after each expiry
        (exponential backoff).
    max_timeout:
        Cap on the backed-off timeout.
    max_retries:
        Retransmission budget per segment.  Once exhausted the sender gives
        up and records a :class:`DeliveryFailure`; the segment is lost for
        good (the receiver can never advance past the gap).
    combine_deadline:
        Engine-level watchdog: a combine still incomplete this many time
        units after initiation is failed fast with a structured
        :class:`~repro.core.engine.CombineTimeout` instead of hanging.
        ``None`` disables the watchdog.
    """

    base_timeout: float = 4.0
    backoff: float = 2.0
    max_timeout: float = 32.0
    max_retries: int = 12
    combine_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base_timeout <= 0:
            raise ValueError(f"base_timeout must be positive, got {self.base_timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_timeout < self.base_timeout:
            raise ValueError("max_timeout must be >= base_timeout")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.combine_deadline is not None and self.combine_deadline <= 0:
            raise ValueError("combine_deadline must be positive when set")


@dataclass(frozen=True)
class Segment:
    """One logical message wrapped with a per-edge sequence number.

    ``epoch`` guards crash recovery: when an edge's sequence state is reset
    (see :meth:`ReliableNetwork.reset_edges_for`) the edge's epoch is
    bumped, and frames stamped with an older epoch are discarded on arrival
    — otherwise a pre-reset in-flight ACK with a high cumulative count
    would silently acknowledge post-reset segments that were never
    delivered.
    """

    seq: int
    payload: Any
    epoch: int = 0

    @property
    def kind(self) -> str:
        inner = getattr(self.payload, "kind", type(self.payload).__name__.lower())
        return f"seg:{inner}"


@dataclass(frozen=True)
class Ack:
    """Cumulative acknowledgement: every ``seq <= cum`` arrived in order.

    Carries the epoch of the data edge it acknowledges; stale-epoch ACKs
    are discarded (see :class:`Segment`).
    """

    cum: int
    epoch: int = 0

    @property
    def kind(self) -> str:
        return "ack"


@dataclass(frozen=True)
class DeliveryFailure:
    """A segment whose retry budget ran out — the channel stayed dead."""

    time: float
    src: int
    dst: int
    seq: int
    message_kind: str
    attempts: int


@dataclass
class ReliabilitySummary:
    """Aggregate recovery-layer counters for one run."""

    segments_sent: int = 0
    retransmits: int = 0
    acks_sent: int = 0
    duplicates_suppressed: int = 0
    out_of_order_buffered: int = 0
    give_ups: int = 0

    @property
    def overhead(self) -> int:
        """Recovery events total: retransmits + ACKs + suppressed dups."""
        return self.retransmits + self.acks_sent + self.duplicates_suppressed


class _Outgoing:
    """Sender-side bookkeeping for one unacknowledged segment."""

    __slots__ = ("seq", "payload", "message_kind", "timer", "retries", "timeout")

    def __init__(self, seq: int, payload: Any, message_kind: str, timer: Timer, timeout: float) -> None:
        self.seq = seq
        self.payload = payload
        self.message_kind = message_kind
        self.timer = timer
        self.retries = 0
        self.timeout = timeout


class ReliableNetwork:
    """A transport restoring reliable FIFO delivery over a lossy channel.

    Drop-in replacement for :class:`~repro.sim.network.Network` (same
    ``send`` / ``in_flight`` / ``is_quiescent`` interface) whose wire is a
    :class:`~repro.sim.faults.FaultyNetwork` injecting drops, duplicates and
    reordering per ``plan``.  The node automaton above it observes exactly
    the paper's channel model: every logical message delivered exactly once,
    in per-edge send order.

    Parameters mirror :class:`~repro.sim.faults.FaultyNetwork` plus
    ``config``; ``stats`` receives goodput via :meth:`MessageStats.record`
    and recovery overhead via :meth:`MessageStats.record_overhead`.
    """

    def __init__(
        self,
        tree: Tree,
        sim: Simulator,
        receiver: Receiver,
        config: ReliabilityConfig,
        plan: Optional[FaultPlan] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        stats: Optional[MessageStats] = None,
        trace: Optional[TraceLog] = None,
        metrics=None,
        clock=None,
    ) -> None:
        self.tree = tree
        self.sim = sim
        self._receiver = receiver
        self.config = config
        #: The clock domain driving retransmission timeouts and trace
        #: timestamps (``now`` + ``timer()``).  Defaults to
        #: :class:`~repro.sim.scheduler.SimClock` over ``sim``, which is
        #: byte-identical to the historical hard-coded virtual-time path.
        self.clock = clock if clock is not None else SimClock(sim)
        self.stats = stats if stats is not None else MessageStats()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` receiving
        #: retransmit counters and reorder-buffer-depth gauges per edge.
        self.metrics = metrics
        self.summary = ReliabilitySummary()
        self.failures: List[DeliveryFailure] = []
        # The wire: lossy transport carrying Segment/Ack frames.  It gets a
        # private MessageStats so frame-level accounting (every copy on the
        # wire) never pollutes the protocol-level goodput/overhead ledgers.
        self.inner = FaultyNetwork(
            tree,
            sim,
            receiver=self._on_frame,
            plan=plan if plan is not None else FaultPlan(),
            latency=latency,
            seed=seed,
            stats=MessageStats(),
            trace=self.trace,
        )
        self._next_seq: Dict[Edge, int] = {}
        self._unacked: Dict[Edge, Dict[int, _Outgoing]] = {}
        self._expected: Dict[Edge, int] = {}
        self._reorder: Dict[Edge, Dict[int, Any]] = {}
        self._epoch: Dict[Edge, int] = {}
        for edge in tree.directed_edges():
            self._init_edge(edge)

    def _init_edge(self, edge: Edge) -> None:
        self._next_seq[edge] = 0
        self._unacked[edge] = {}
        self._expected[edge] = 0
        self._reorder[edge] = {}
        self._epoch[edge] = 0

    # ------------------------------------------------------------- interface
    @property
    def faults(self) -> FaultLog:
        """The wire's injected-fault log."""
        return self.inner.faults

    @property
    def plan(self) -> FaultPlan:
        return self.inner.plan

    def send(self, src: int, dst: int, message: Any) -> None:
        """Send one logical message with guaranteed in-order delivery."""
        edge = (src, dst)
        if edge not in self._next_seq:
            raise ValueError(f"({src}, {dst}) is not a tree edge; cannot send")
        kind = getattr(message, "kind", type(message).__name__.lower())
        self.stats.record(src, dst, kind)  # goodput: once per logical message
        self.trace.emit(self.clock.now, "send", src, dst=dst, msg=kind)
        seq = self._next_seq[edge]
        self._next_seq[edge] = seq + 1
        out = _Outgoing(seq, message, kind, self.clock.timer(), self.config.base_timeout)
        self._unacked[edge][seq] = out
        self._transmit(edge, out, first=True)

    def in_flight(self) -> int:
        """Frames on the wire plus segments awaiting acknowledgement."""
        return self.inner.in_flight() + sum(len(d) for d in self._unacked.values())

    def is_quiescent(self) -> bool:
        """True when nothing is in transit and nothing awaits an ACK.

        Segments whose retry budget ran out are *not* counted: they are
        recorded in :attr:`failures` and will never drain.
        """
        return self.in_flight() == 0

    def sender(self, src: int, dst: int):
        """A precomputed send callable for the directed edge ``src -> dst``."""
        if (src, dst) not in self._next_seq:
            raise ValueError(f"({src}, {dst}) is not a tree edge")
        return partial(self.send, src, dst)

    def set_topology(self, tree: Tree) -> None:
        """Swap the tree under the transport (dynamic attach/detach/rename).

        New directed edges start fresh sequence-number state; state for
        removed edges is dropped (and the lossy wire below is re-keyed the
        same way).  Must be called at quiescence — nothing may be unacked.
        """
        if not self.is_quiescent():
            raise RuntimeError("cannot change topology with segments unacknowledged")
        self.tree = tree
        wanted = set(tree.directed_edges())
        for edge in [e for e in self._next_seq if e not in wanted]:
            del self._next_seq[edge]
            del self._unacked[edge]
            del self._expected[edge]
            del self._reorder[edge]
            del self._epoch[edge]
        for edge in tree.directed_edges():
            if edge not in self._next_seq:
                self._init_edge(edge)
        self.inner.set_topology(tree)

    def rename_node(self, old: int, new: int) -> None:
        """Re-key the wire's crash/partition state after a dynamic rename
        (edge-level sequence state is re-keyed by :meth:`set_topology`)."""
        self.inner.rename_node(old, new)

    # --------------------------------------------------------- crash recovery
    @property
    def crashed(self):
        """The wire's crashed-node set."""
        return self.inner.crashed

    def crash_node(self, node: int) -> None:
        """Direct-API crash: black-hole the node's traffic on the wire."""
        self.inner.crash_node(node)

    def recover_node(self, node: int) -> None:
        """Direct-API recover: reopen the wire (callers should follow with
        :meth:`reset_edges_for` — the node's conversation state is gone)."""
        self.inner.recover_node(node)

    def reset_edges_for(self, node: int) -> None:
        """Zero the sequence state of every edge touching ``node``.

        Called when ``node`` recovers from a crash: the node's reliable
        conversation state died with it, so both directions of each
        incident edge restart from seq 0 in a **new epoch** (stale
        in-flight frames of the old epoch are discarded on arrival — see
        :class:`Segment`).  Every still-unacknowledged segment on those
        edges is a declared loss: its retransmission timer is cancelled and
        a ``delivery_failed`` trace event announces the casualty.
        Reorder-buffered arrivals are dropped silently — their sender-side
        unacked entry already declares the loss.
        """
        for edge in self._next_seq:
            if node not in edge:
                continue
            src, dst = edge
            for seq in sorted(self._unacked[edge]):
                out = self._unacked[edge][seq]
                out.timer.cancel()
                self.summary.give_ups += 1
                self.failures.append(
                    DeliveryFailure(
                        time=self.clock.now, src=src, dst=dst,
                        seq=seq, message_kind=out.message_kind, attempts=out.retries,
                    )
                )
                self.trace.emit(
                    self.clock.now, "delivery_failed", src,
                    dst=dst, msg=out.message_kind, seq=seq, attempts=out.retries,
                )
            self._unacked[edge] = {}
            self._next_seq[edge] = 0
            self._expected[edge] = 0
            self._reorder[edge] = {}
            self._epoch[edge] += 1

    def pending_snapshot(self) -> Tuple[Any, ...]:
        """Canonical, hashable rendering of the reliable layer's per-edge
        conversation state: sequence counters, epoch, unacked segments
        (payload + retry count) and the reorder buffer, sorted by edge.
        Used by :meth:`NodeRuntime.state_snapshot` and the fork parity
        tests; wire frames in flight below are simulator events and are
        not part of this snapshot."""
        out = []
        for edge in sorted(self._next_seq):
            out.append(
                (
                    edge,
                    self._next_seq[edge],
                    self._epoch[edge],
                    self._expected[edge],
                    tuple(
                        (seq, canonical_value(o.payload), o.retries)
                        for seq, o in sorted(self._unacked[edge].items())
                    ),
                    tuple(
                        (seq, canonical_value(p))
                        for seq, p in sorted(self._reorder[edge].items())
                    ),
                )
            )
        return tuple(out)

    # ---------------------------------------------------------- sender side
    def _transmit(self, edge: Edge, out: _Outgoing, first: bool) -> None:
        src, dst = edge
        if first:
            self.summary.segments_sent += 1
        else:
            self.summary.retransmits += 1
            self.stats.record_overhead(src, dst, "retransmit")
            if self.metrics is not None:
                self.metrics.counter("retransmits_total", src=src, dst=dst).inc()
            self.trace.emit(
                self.clock.now, "retransmit", src,
                dst=dst, msg=out.message_kind, seq=out.seq, attempt=out.retries,
            )
        self.inner.send(
            src, dst,
            Segment(seq=out.seq, payload=out.payload, epoch=self._epoch[edge]),
        )
        out.timer.start(
            out.timeout,
            partial(self._on_timeout, edge, out),
            label=f"rto {src}->{dst} #{out.seq}",
        )

    def _on_timeout(self, edge: Edge, out: _Outgoing) -> None:
        if self._unacked[edge].get(out.seq) is not out:
            return  # acknowledged (or superseded) in the meantime
        out.retries += 1
        if out.retries > self.config.max_retries:
            del self._unacked[edge][out.seq]
            self.summary.give_ups += 1
            src, dst = edge
            self.failures.append(
                DeliveryFailure(
                    time=self.clock.now, src=src, dst=dst,
                    seq=out.seq, message_kind=out.message_kind, attempts=out.retries,
                )
            )
            self.trace.emit(
                self.clock.now, "delivery_failed", src,
                dst=dst, msg=out.message_kind, seq=out.seq, attempts=out.retries,
            )
            self._restart_conversation(edge)
            return
        out.timeout = min(out.timeout * self.config.backoff, self.config.max_timeout)
        self._transmit(edge, out, first=False)

    def _restart_conversation(self, edge: Edge) -> None:
        """Re-sequence a directed edge after a give-up left a gap.

        A given-up segment leaves a hole the receiver can never advance
        past: every later segment buffers behind it, cumulative ACKs stay
        pinned below the gap, and each in turn exhausts its own retry
        budget — one give-up would wedge the edge *forever* (observed as
        probe rounds stuck across a partition long after it healed).

        The fix reuses the crash-recovery epoch machinery: bump the edge's
        epoch, renumber the surviving unacked segments from 0 in send
        order, and retransmit them.  Old-epoch frames and ACKs still on
        the wire are discarded on arrival by the existing epoch checks, so
        every surviving message is still delivered exactly once, in order
        — only the declared-lost segment is missing from the stream.
        """
        src, dst = edge
        survivors = [self._unacked[edge][s] for s in sorted(self._unacked[edge])]
        for out in survivors:
            out.timer.cancel()
        self._epoch[edge] += 1
        self._next_seq[edge] = 0
        self._expected[edge] = 0
        self._reorder[edge].clear()
        self._unacked[edge] = {}
        self.trace.emit(
            self.clock.now, "conversation_restart", src,
            dst=dst, epoch=self._epoch[edge], resent=len(survivors),
        )
        for out in survivors:
            out.seq = self._next_seq[edge]
            self._next_seq[edge] += 1
            out.retries = 0
            out.timeout = self.config.base_timeout
            self._unacked[edge][out.seq] = out
            self._transmit(edge, out, first=False)

    def _on_ack(self, ack_src: int, ack_dst: int, ack: Ack) -> None:
        # The ACK traveled ack_src -> ack_dst; it acknowledges data on the
        # reverse edge (ack_dst -> ack_src).
        data_edge = (ack_dst, ack_src)
        if ack.epoch != self._epoch[data_edge]:
            return  # stale epoch: predates a recovery-time edge reset
        pending = self._unacked[data_edge]
        for seq in [s for s in pending if s <= ack.cum]:
            pending[seq].timer.cancel()
            del pending[seq]

    # -------------------------------------------------------- receiver side
    def _on_frame(self, src: int, dst: int, frame: Any) -> None:
        if isinstance(frame, Ack):
            self._on_ack(src, dst, frame)
            return
        edge = (src, dst)
        if frame.epoch != self._epoch[edge]:
            # A pre-reset segment still on the wire; its loss was already
            # declared when the edge was reset.
            self.stats.record_overhead(src, dst, "stale_epoch")
            self.trace.emit(
                self.clock.now, "dup_suppressed", dst, src=src, seq=frame.seq,
                stale_epoch=True,
            )
            return
        seq = frame.seq
        expected = self._expected[edge]
        buffer = self._reorder[edge]
        if seq < expected or seq in buffer:
            # Channel duplicate or a retransmission of something we hold:
            # suppress, but re-ACK so the sender can stop retransmitting.
            self.summary.duplicates_suppressed += 1
            self.stats.record_overhead(src, dst, "duplicate")
            self.trace.emit(self.clock.now, "dup_suppressed", dst, src=src, seq=seq)
            self._send_ack(edge)
            return
        buffer[seq] = frame.payload
        if seq != expected:
            self.summary.out_of_order_buffered += 1
        if self.metrics is not None:
            self.metrics.gauge(
                "reorder_buffer_depth", src=src, dst=dst
            ).set(len(buffer))
        while self._expected[edge] in buffer:
            payload = buffer.pop(self._expected[edge])
            self._expected[edge] += 1
            kind = getattr(payload, "kind", type(payload).__name__.lower())
            self.trace.emit(self.clock.now, "deliver", dst, src=src, msg=kind)
            self._receiver(src, dst, payload)
        if self.metrics is not None:
            self.metrics.gauge("reorder_buffer_depth", src=src, dst=dst).set(len(buffer))
        self._send_ack(edge)

    def _send_ack(self, edge: Edge) -> None:
        src, dst = edge
        self.summary.acks_sent += 1
        self.stats.record_overhead(dst, src, "ack")
        self.inner.send(
            dst, src, Ack(cum=self._expected[edge] - 1, epoch=self._epoch[edge])
        )

