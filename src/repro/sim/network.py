"""The zero-latency transport of the sequential model (Section 2).

:class:`SynchronousNetwork` puts messages into one global FIFO queue;
:meth:`SynchronousNetwork.run_to_quiescence` drains it, which realizes the
paper's quiescent-state semantics exactly (global FIFO trivially preserves
per-channel FIFO).  Every send must travel along a tree edge.

The concurrent model of Section 5 runs on the latency-ful wire,
:class:`~repro.sim.faults.FaultyNetwork`; with no faults planned it is a
reliable FIFO channel with latency on every directed edge.
:func:`~repro.sim.transport.build_transport` picks the transport.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree
from repro.util.canon import canonical_value

#: Receiver callback: (src, dst, message) -> None.
Receiver = Callable[[int, int, Any], None]


class SynchronousNetwork:
    """Zero-latency transport draining a global FIFO queue to quiescence."""

    def __init__(
        self,
        tree: Tree,
        receiver: Receiver,
        stats: Optional[MessageStats] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.tree = tree
        self._receiver = receiver
        self.stats = stats if stats is not None else MessageStats()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self._queue: Deque[Tuple[int, int, Any]] = deque()
        self._delivering = False
        self.crashed: set = set()

    def send(self, src: int, dst: int, message: Any) -> None:
        """Enqueue ``message`` from ``src`` to its neighbor ``dst``.

        Traffic to or from a crashed node is black-holed as a *declared
        loss*: the send is still traced and counted (the sender paid for
        it), then a ``delivery_failed`` event announces the casualty so
        the offline causal checker can discount it.
        """
        if not self.tree.has_edge(src, dst):
            raise ValueError(f"({src}, {dst}) is not a tree edge; cannot send")
        kind = getattr(message, "kind", type(message).__name__.lower())
        self.stats.record(src, dst, kind)
        self.trace.emit(0.0, "send", src, dst=dst, msg=kind)
        if src in self.crashed or dst in self.crashed:
            self.trace.emit(
                0.0, "delivery_failed", src, dst=dst, msg=kind, seq=-1, attempts=0
            )
            return
        self._queue.append((src, dst, message))

    # ------------------------------------------------------- crash/recovery
    def crash_node(self, node: int) -> None:
        """Black-hole the node: queued messages to it die as declared
        losses; future traffic to or from it is discarded at send time."""
        self.crashed.add(node)
        survivors: Deque[Tuple[int, int, Any]] = deque()
        for src, dst, message in self._queue:
            if dst == node:
                kind = getattr(message, "kind", type(message).__name__.lower())
                self.trace.emit(
                    0.0, "delivery_failed", src, dst=dst, msg=kind, seq=-1, attempts=0
                )
            else:
                survivors.append((src, dst, message))
        self._queue = survivors

    def recover_node(self, node: int) -> None:
        """Reopen the wire to ``node`` (state restoration happens above)."""
        self.crashed.discard(node)

    def rename_node(self, old: int, new: int) -> None:
        """Re-key crash state after a dynamic-tree id rename."""
        if old in self.crashed:
            self.crashed.discard(old)
            self.crashed.add(new)

    def run_to_quiescence(self, max_messages: int = 10_000_000) -> int:
        """Deliver queued messages (and those they trigger) until none remain.

        Returns the number of messages delivered.  Re-entrant calls (a
        receiver triggering delivery) are flattened into the outer loop.
        """
        if self._delivering:
            return 0
        self._delivering = True
        delivered = 0
        try:
            while self._queue:
                src, dst, message = self._queue.popleft()
                kind = getattr(message, "kind", type(message).__name__.lower())
                self.trace.emit(0.0, "recv", dst, src=src, msg=kind)
                self._receiver(src, dst, message)
                delivered += 1
                if delivered > max_messages:
                    raise RuntimeError(
                        f"exceeded {max_messages} deliveries; protocol livelock?"
                    )
        finally:
            self._delivering = False
        return delivered

    def is_quiescent(self) -> bool:
        """True when no message is queued (Section 2's condition (2))."""
        return not self._queue

    # ------------------------------------------------- frontier enumeration
    # The hooks the small-scope model checker (repro.verify.explore) drives:
    # instead of draining the whole queue in arrival order, an explorer
    # enumerates the directed edges with a message in flight and chooses
    # which edge delivers next.  Delivering the *oldest* message of the
    # chosen edge preserves per-channel FIFO, so every schedule the explorer
    # generates is a legal execution of the paper's network model.

    def pending_edges(self) -> List[Tuple[int, int]]:
        """Directed edges with at least one queued message — the explorer's
        delivery frontier.  Ordered by oldest queued message, deduplicated,
        so enumeration is deterministic."""
        seen: List[Tuple[int, int]] = []
        for src, dst, _ in self._queue:
            edge = (src, dst)
            if edge not in seen:
                seen.append(edge)
        return seen

    def deliver_next(self, src: int, dst: int) -> None:
        """Deliver the oldest queued message on edge ``src -> dst`` only.

        Messages the receiver sends in response stay queued (the explorer
        decides their delivery order later).  Raises ``ValueError`` when the
        edge has nothing in flight.
        """
        for i, (s, d, message) in enumerate(self._queue):
            if (s, d) == (src, dst):
                del self._queue[i]
                kind = getattr(message, "kind", type(message).__name__.lower())
                self.trace.emit(0.0, "recv", dst, src=src, msg=kind)
                self._receiver(src, dst, message)
                return
        raise ValueError(f"no message in flight on edge ({src}, {dst})")

    def pending_snapshot(self) -> Tuple[Any, ...]:
        """Canonical, hashable rendering of the in-flight messages: per-edge
        FIFO queues, sorted by edge.

        The cross-edge interleaving of the global deque is deliberately
        erased — under :meth:`deliver_next` future behavior depends only on
        the per-edge queues, so two states differing only in that
        interleaving are the same state to the explorer (this is what makes
        deliveries to distinct nodes commute *exactly*, the independence
        relation of the sleep-set reduction).
        """
        per_edge: Dict[Tuple[int, int], List[Any]] = {}
        for src, dst, message in self._queue:
            per_edge.setdefault((src, dst), []).append(canonical_value(message))
        snap: Tuple[Any, ...] = tuple(
            (edge, tuple(messages)) for edge, messages in sorted(per_edge.items())
        )
        if self.crashed:
            # Shape-stable: crash-free states keep their historical snapshot.
            snap += (("crashed", tuple(sorted(self.crashed))),)
        return snap

    def set_topology(self, tree: Tree) -> None:
        """Swap the tree under the transport (dynamic attach/detach/rename).

        Must be called at quiescence — the queue carries ``(src, dst)``
        pairs of the old topology.
        """
        if not self.is_quiescent():
            raise RuntimeError("cannot change topology with messages queued")
        self.tree = tree

