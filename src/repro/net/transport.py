"""`AsyncioTransport`: the live transport a ``NodeServer`` runs.

It honors the simulated transports' channel contract (``send`` /
``is_quiescent`` / ``stats`` / ``trace``; reliable FIFO per directed edge)
over asyncio, for the nodes one server process hosts: a send to a hosted
node loops back through the server's event loop, and every other send is
handed to the server's socket layer via ``remote_send`` and arrives at the
peer process through :meth:`AsyncioTransport.deliver_remote`.  The server
constructs it directly; it is not built through
:func:`~repro.sim.transport.build_transport`.

Every logical send is stamped with a per-directed-edge sequence number and
the sender's process incarnation; both ride the wire frame and are recorded
as *extra* detail fields on the ``send``/``deliver`` trace events (the
schema registry allows extras).  The offline merge tool
(:mod:`repro.net.merge`) uses them to FIFO-match sends to deliveries
exactly and to synthesize ``delivery_failed`` events for messages that died
with a killed process.

The module also owns the length-prefixed frame codec: 4-byte big-endian
length, then a canonical JSON object (sorted keys — same conventions as
the JSONL trace export).
"""

from __future__ import annotations

import asyncio
import json
import struct
from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, Optional, Set, Tuple

from repro.net.codec import encode_message
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree

Edge = Tuple[int, int]

_LEN = struct.Struct(">I")

#: Refuse absurd frames early (a desynced stream reads garbage lengths).
MAX_FRAME = 16 * 1024 * 1024

#: Once a frame header has arrived, the payload must follow promptly: a
#: peer that died mid-frame must not wedge the reader forever (asynclint
#: PL603).  Waiting *for the next header* is unbounded by design — an idle
#: but healthy connection is legal — unless the caller passes ``timeout``.
FRAME_PAYLOAD_TIMEOUT = 5.0


def frame_bytes(obj: Dict[str, Any]) -> bytes:
    """Length-prefixed canonical-JSON frame for one wire object."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return _LEN.pack(len(payload)) + payload


def write_frame(writer: asyncio.StreamWriter, obj: Dict[str, Any]) -> None:
    """Queue one frame on a stream (caller drains at its own cadence)."""
    writer.write(frame_bytes(obj))


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    timeout: Optional[float] = None,
    payload_timeout: float = FRAME_PAYLOAD_TIMEOUT,
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean or torn EOF.

    ``timeout`` bounds the wait for the *header* (i.e. connection
    idleness) and raises :class:`asyncio.TimeoutError` — idle policy
    belongs to the caller.  ``payload_timeout`` bounds the header-to-
    payload gap; a frame torn by a dying peer reads as EOF (``None``),
    the same as a torn connection.
    """
    try:
        header = await asyncio.wait_for(reader.readexactly(_LEN.size), timeout)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds MAX_FRAME")
    try:
        payload = await asyncio.wait_for(
            reader.readexactly(length), payload_timeout
        )
    except (asyncio.IncompleteReadError, ConnectionError, asyncio.TimeoutError):
        return None
    frame: Dict[str, Any] = json.loads(payload.decode())
    return frame


def message_frame(src: int, dst: int, message: Any, seq: int, inc: int, hlc: float) -> Dict[str, Any]:
    """The ``msg`` wire frame for one protocol message."""
    return {
        "type": "msg",
        "src": src,
        "dst": dst,
        "seq": seq,
        "inc": inc,
        "hlc": hlc,
        "m": encode_message(message),
    }


class AsyncioTransport:
    """The live transport: event-loop delivery for hosted nodes, socket
    egress for the rest.

    Parameters
    ----------
    tree:
        Topology sends are validated against.
    receiver:
        ``(src, dst, message) -> None`` — the node router.
    clock:
        Zero-argument callable stamping trace events (the server's
        :meth:`~repro.net.clock.HybridClock.tick`).
    stats / trace:
        The server's message ledger and trace log.
    local_nodes:
        Node ids this process hosts; their deliveries loop back through
        ``loop``.
    remote_send:
        ``(src, dst, message, seq) -> None`` egress for every other
        destination.
    loop:
        The server's running event loop.
    incarnation:
        This process's spawn generation; stamped on every send.
    """

    #: Multi-task mutation license (asynclint PL604): ``send`` is handed to
    #: every hosted node as its egress callable, so any task delivering a
    #: message appends to ``_queue`` and flips ``_pump_scheduled``; the
    #: scheduled ``_pump`` callback pops.  Single event loop, and neither
    #: send nor _pump awaits while touching them — each step is atomic.
    _ASYNC_SHARED: FrozenSet[str] = frozenset({"_queue", "_pump_scheduled"})

    def __init__(
        self,
        tree: Tree,
        receiver: Callable[[int, int, Any], None],
        *,
        clock: Callable[[], float],
        stats: MessageStats,
        trace: TraceLog,
        local_nodes: Set[int],
        remote_send: Callable[[int, int, Any, int], None],
        loop: asyncio.AbstractEventLoop,
        incarnation: int,
    ) -> None:
        self._receiver = receiver
        self._clock = clock
        self.stats = stats
        self.trace = trace
        self.local_nodes = set(local_nodes)
        self._remote_send = remote_send
        self._loop = loop
        self.incarnation = incarnation
        self._edges: Set[Edge] = set(tree.directed_edges())
        self._next_seq: Dict[Edge, int] = {}
        # Receiver-side dedup: highest (inc, seq) delivered per edge.  TCP
        # never duplicates, but a reconnect race could replay a frame; the
        # guard keeps delivery exactly-once cheaply.
        self._delivered: Dict[Edge, Tuple[int, int]] = {}
        self._queue: Deque[Tuple[int, int, Any, int, int]] = deque()
        self._pump_scheduled = False

    # ------------------------------------------------------------- interface
    def send(self, src: int, dst: int, message: Any) -> None:
        """Send one logical message (hosted: event-loop FIFO; else: socket)."""
        edge = (src, dst)
        if edge not in self._edges:
            raise ValueError(f"({src}, {dst}) is not a tree edge; cannot send")
        kind = getattr(message, "kind", type(message).__name__.lower())
        seq = self._next_seq.get(edge, 0)
        self._next_seq[edge] = seq + 1
        self.stats.record(src, dst, kind)
        self.trace.emit(
            self._clock(), "send", src,
            dst=dst, msg=kind, seq=seq, inc=self.incarnation,
        )
        if dst in self.local_nodes:
            self._queue.append((src, dst, message, seq, self.incarnation))
            if not self._pump_scheduled:
                self._pump_scheduled = True
                self._loop.call_soon(self._pump)
        else:
            self._remote_send(src, dst, message, seq)

    def is_quiescent(self) -> bool:
        """True when no local delivery is pending.  Remote frames in kernel
        buffers are invisible here — cross-process quiescence is the
        supervisor's job (stable status polls)."""
        return not self._queue

    # -------------------------------------------------------------- delivery
    def _deliver(self, src: int, dst: int, message: Any, seq: int, inc: int) -> None:
        last = self._delivered.get((src, dst))
        if last is not None and (inc, seq) <= last:
            return  # replayed frame; already delivered
        self._delivered[(src, dst)] = (inc, seq)
        kind = getattr(message, "kind", type(message).__name__.lower())
        self.trace.emit(
            self._clock(), "deliver", dst, src=src, msg=kind, seq=seq, inc=inc,
        )
        self._receiver(src, dst, message)

    def deliver_remote(self, src: int, dst: int, message: Any, seq: int, inc: int) -> None:
        """Ingress for a frame from a peer process (called by the server)."""
        self._deliver(src, dst, message, seq, inc)

    def _pump(self) -> None:
        """Drain the hosted-node queue; scheduled on the loop by ``send``."""
        self._pump_scheduled = False
        while self._queue:
            self._deliver(*self._queue.popleft())


__all__ = [
    "AsyncioTransport",
    "frame_bytes",
    "write_frame",
    "read_frame",
    "message_frame",
    "MAX_FRAME",
]
