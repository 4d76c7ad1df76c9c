"""`NodeServer`: one OS process hosting a slice of the aggregation tree.

Each server process owns:

* the **hosted** :class:`~repro.core.mechanism.LeaseNode` automata (one or
  more node ids from the :class:`~repro.net.cluster.ClusterConfig`
  assignment), driven unmodified — the automaton cannot tell sockets from
  the simulator;
* an :class:`~repro.net.transport.AsyncioTransport`: hosted-to-hosted
  messages loop back through the asyncio event loop, everything else is
  framed onto a per-peer-process TCP connection;
* a per-process **JSONL trace stream**
  (``trace-<proc>.<incarnation>.jsonl``), flushed line-per-event so a
  SIGKILL loses at most one partial line (the merge tool tolerates torn
  tails);
* a :class:`~repro.recovery.manager.RecoveryManager` over the hosted
  nodes — the simulator's own — on the process's hybrid clock, with "the
  peer's process is inside the dial cooldown" as its down check.  One
  periodic loop ticks its lease-TTL sweep (expiry and stuck-round
  re-probes) and its checkpoints, pickled per node as **durable
  checkpoints**; a restarted incarnation loads them and rejoins each node
  through :meth:`RecoveryManager.handle_recover` before serving;
* the simulator's request lifecycle
  (:class:`~repro.core.backend.RuntimeTelemetry`) on the hybrid clock: the
  same ``span`` events and request metrics, and no span list;
* per-process **metrics** (the request metrics plus the standard
  :class:`~repro.obs.metrics.MetricsBridge` over the trace), dumped to
  ``metrics-<proc>.<incarnation>.json`` at shutdown.

Messages to a peer that is down are *dropped after a short dial grace* —
exactly the simulator's crash semantics, where
``ReliableNetwork.reset_edges_for`` declares unacked segments lost.  The
loss shows up offline: the merge tool FIFO-matches the ``seq``/``inc``
stamps and synthesizes ``delivery_failed`` events on crash-touched edges.
"""

from __future__ import annotations

import asyncio
import pathlib
import pickle
import time
from collections import deque
from functools import partial
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    TextIO,
    Tuple,
)

from repro.core.backend import OpenRequest, RuntimeTelemetry
from repro.core.mechanism import LeaseNode
from repro.core.policies import parse_policy_spec
from repro.core.runtime import Router
from repro.net.cluster import ClusterConfig
from repro.net.clock import HybridClock
from repro.net.codec import decode_message
from repro.net.transport import (
    AsyncioTransport,
    message_frame,
    read_frame,
    write_frame,
)
from repro.obs.export import _dump_line
from repro.obs.metrics import MetricsBridge, MetricsRegistry
from repro.ops.standard import SUM
from repro.recovery.manager import RecoveryConfig, RecoveryManager
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.workloads.requests import COMBINE, WRITE, Request

#: How long a dead peer's dial is retried before frames are dropped as
#: losses (the live analog of the sim's declared-lost unacked segments).
DIAL_GRACE = 0.25

#: Upper bound on any single peer-socket await (``drain``, one dial
#: attempt): a dead peer must surface as a reconnect, never as a wedged
#: writer task (asynclint PL603).
PEER_IO_TIMEOUT = 5.0


class _TraceStreamer:
    """Trace subscriber appending one flushed JSONL line per event."""

    def __init__(self, path: pathlib.Path) -> None:
        self.fh: TextIO = open(path, "w")
        self.count = 0
        #: Event count excluding periodic housekeeping (checkpoints) — the
        #: supervisor's quiescence poll compares this across rounds, and a
        #: checkpoint tick must not read as protocol activity.
        self.activity = 0

    def __call__(self, ev: Any) -> None:
        self.fh.write(_dump_line(ev) + "\n")
        self.fh.flush()
        self.count += 1
        if ev.kind != "checkpoint":
            self.activity += 1

    def close(self) -> None:
        try:
            self.fh.close()
        except Exception:
            pass


class NodeServer(RuntimeTelemetry):
    """Hosts the ``proc`` slice of a cluster on one asyncio event loop."""

    #: Fields deliberately mutated from more than one task (asynclint
    #: PL604 license).  Everything runs on ONE event loop, so these are
    #: not memory races — the hazard is interleaving across ``await``
    #: points, and each entry's discipline rules that out:
    #:
    #: ``nodes``        LeaseNode mutations are synchronous call chains
    #:                  (`_serve_conn` delivery, `_sweep_body` ->
    #:                  `RecoveryManager.sweep` expiry and re-probes);
    #:                  no handler ever awaits mid-mutation, so each
    #:                  automaton step is atomic on the loop.
    #: ``_out_queues``  append (any sender) vs popleft (only the peer's
    #:                  single writer task): a one-reader queue.
    #: ``_out_wake``    Event set by producers, cleared only by the one
    #:                  consumer.
    #: ``_down_until``  monotonic-time marker: writer task sets it on dial
    #:                  failure, `_serve_conn` deletes it on a hello; both
    #:                  transitions are idempotent and self-correcting.
    #: ``_tasks``       append-only retention list, pruned/cancelled in
    #:                  one place (`_retain` / `run` teardown).
    _ASYNC_SHARED: FrozenSet[str] = frozenset(
        {"nodes", "_out_queues", "_out_wake", "_down_until", "_tasks"}
    )

    def __init__(self, config: ClusterConfig, proc: str, incarnation: int = 0) -> None:
        self.config = config
        self.proc = proc
        self.incarnation = incarnation
        self.hosted: Set[int] = set(config.assignment[proc])
        self.tree = config.tree
        self.hlc = HybridClock()
        self.stats = MessageStats()
        # Every consumer (the JSONL streamer, the metrics bridge, the
        # recovery manager) subscribes; the streamed file is the record,
        # so the log keeps only a one-event window in memory.
        self.trace = TraceLog(enabled=True, max_events=1)
        self.metrics = MetricsRegistry()
        self.trace.subscribe(MetricsBridge(self.metrics))
        # Each process sees only its own requests, and the per-edge OPT
        # needs the whole sequence.
        self.cost_meter = None
        self.run_dir = pathlib.Path(config.run_dir)
        self.streamer = _TraceStreamer(
            self.run_dir / f"trace-{proc}.{incarnation}.jsonl"
        )
        self.trace.subscribe(self.streamer)
        self.router = Router()
        self.nodes: Dict[int, LeaseNode] = {}
        self.transport: Optional[AsyncioTransport] = None
        self.recovery = RecoveryManager(
            self.nodes,
            RecoveryConfig(
                checkpoint_interval=config.checkpoint_interval,
                lease_ttl=config.lease_ttl,
            ),
            trace=self.trace,
            metrics=self.metrics,
            clock=self.hlc.tick,
            is_down=self._peer_down,
        )
        self._out_queues: Dict[str, Deque[Dict[str, Any]]] = {}
        self._out_wake: Dict[str, asyncio.Event] = {}
        self._down_until: Dict[str, float] = {}
        self._stopping = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List["asyncio.Future[Any]"] = []

    @property
    def now(self) -> float:
        """The request lifecycle's clock: each read ticks the hybrid clock."""
        return self.hlc.tick()

    def _retain(self, task: "asyncio.Future[Any]") -> None:
        """Keep a strong reference to a background task (the event loop
        holds only a weak one), pruning completed entries as we go."""
        self._tasks = [t for t in self._tasks if not t.done()]
        self._tasks.append(task)

    # ---------------------------------------------------------------- setup
    def _build_nodes(self) -> None:
        """Build the transport, a writer queue per peer process and the
        hosted nodes.  Runs on the event loop."""
        self.transport = AsyncioTransport(
            self.tree,
            self.router.route,
            clock=self.hlc.tick,
            stats=self.stats,
            trace=self.trace,
            local_nodes=self.hosted,
            remote_send=self._remote_send,
            loop=asyncio.get_running_loop(),
            incarnation=self.incarnation,
        )
        for peer in self.config.procs:
            if peer != self.proc:
                self._out_queues[peer] = deque()
                self._out_wake[peer] = asyncio.Event()
        policy_factory, _ = parse_policy_spec(self.config.policy)
        # One policy per tree node in id order, as NodeRuntime builds them:
        # a seeded factory (``random:p``) then gives node k the same coin
        # in every process layout, not one seed sequence per process.
        policies = [policy_factory() for _ in self.tree.nodes()]
        for nid in sorted(self.hosted):
            node = LeaseNode(
                nid,
                self.tree,
                SUM,
                policies[nid],
                send=partial(self.transport.send, nid),
                trace=self.trace,
                clock=self.hlc.tick,
            )
            self.nodes[nid] = node
            self.router.add(node)

    # ------------------------------------------------------------- recovery
    async def _recover_from_checkpoints(self) -> None:
        """A restarted incarnation loads each hosted node's durable
        checkpoint into the manager's store and rejoins the node through
        :meth:`RecoveryManager.handle_recover` — restore, reconciliation
        round (Release(∅) + Revoke per neighbor, fresh probes), lease-timer
        renewal — the simulator's recovery path.  File reads go through
        the executor; the node mutations stay on the loop (the reconcile
        round sends through ``_remote_send``, which touches loop-owned
        ``asyncio.Event``s)."""
        loop = asyncio.get_running_loop()
        for nid in sorted(self.nodes):
            path = self._checkpoint_path(nid)
            try:
                data = await loop.run_in_executor(None, path.read_bytes)
            except OSError:
                data = None  # no checkpoint yet
            if data is not None:
                try:
                    self.recovery.store.save(pickle.loads(data))
                except Exception:
                    pass  # torn checkpoint (killed mid-write): start fresh
            self.recovery.handle_recover(nid)

    def _peer_down(self, node: int) -> bool:
        """The recovery manager's down check: ``node``'s process is inside
        the writer's dial cooldown, so frames to it are dropped as losses."""
        return time.monotonic() < self._down_until.get(self.config.proc_of(node), 0.0)

    def _sweep_body(self) -> None:
        # The periodic loop's one call into the manager, a method of its
        # own so the benchmark tracer (benchmarks/suite/layers.py) can time
        # the serve sweep by name.
        self.recovery.sweep()

    async def _periodic(
        self, step: float, tick: Callable[[], Optional[Awaitable[None]]]
    ) -> None:
        """Call ``tick`` every ``step`` seconds until shutdown, awaiting
        what it returns (checkpoints persist through the executor)."""
        while not self._stopping.is_set():
            try:
                await asyncio.wait_for(self._stopping.wait(), timeout=step)
                return
            except asyncio.TimeoutError:
                pass
            pending = tick()
            if pending is not None:
                await pending

    # ------------------------------------------------------------ checkpoints
    def _checkpoint_path(self, nid: int) -> pathlib.Path:
        return self.run_dir / f"checkpoint-n{nid}.pkl"

    def _capture_checkpoints(self) -> List[Tuple[pathlib.Path, bytes]]:
        """Snapshot every hosted node *synchronously on the loop* (the
        capture must not interleave with message delivery) and return the
        serialized blobs for out-of-loop persistence."""
        return [
            (self._checkpoint_path(cp.node), pickle.dumps(cp))
            for cp in self.recovery.checkpoint_now()
        ]

    @staticmethod
    def _persist_blobs(blobs: List[Tuple[pathlib.Path, bytes]]) -> None:
        """Write checkpoint blobs durably (tmp + rename so a SIGKILL never
        tears a checkpoint).  Runs in the executor: pure file I/O, no
        node or loop state touched."""
        for cp_path, data in blobs:
            tmp = cp_path.with_suffix(".pkl.tmp")
            tmp.write_bytes(data)
            tmp.replace(cp_path)

    async def _checkpoint_now(self) -> None:
        blobs = self._capture_checkpoints()
        if blobs:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._persist_blobs, blobs)

    # ----------------------------------------------------------- remote egress
    def _remote_send(self, src: int, dst: int, message: Any, seq: int) -> None:
        peer = self.config.proc_of(dst)
        frame = message_frame(src, dst, message, seq, self.incarnation, self.hlc.tick())
        self._out_queues[peer].append(frame)
        self._out_wake[peer].set()

    async def _dial(
        self, peer: str
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        host, port = self.config.addr(peer)
        deadline = time.monotonic() + DIAL_GRACE
        while time.monotonic() < deadline:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    timeout=max(deadline - time.monotonic(), 0.01),
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                await asyncio.sleep(0.03)
                continue
            write_frame(
                writer,
                {"type": "hello", "proc": self.proc, "inc": self.incarnation},
            )
            # Drain the peer's frames too: it may answer nothing, but a
            # torn connection surfaces as EOF on the reader — the writer
            # task checks ``reader.at_eof()`` before every frame, because a
            # write into a connection whose peer already died buffers
            # silently (the reset only fails the write *after* the lost
            # one).
            self._retain(asyncio.ensure_future(self._sink(reader)))
            return reader, writer
        return None

    @staticmethod
    async def _sink(reader: asyncio.StreamReader) -> None:
        while await read_frame(reader) is not None:
            pass

    async def _writer_task(self, peer: str) -> None:
        queue = self._out_queues[peer]
        wake = self._out_wake[peer]
        reader: Optional[asyncio.StreamReader] = None
        writer: Optional[asyncio.StreamWriter] = None
        while True:
            if not queue:
                wake.clear()
                if self._stopping.is_set():
                    break
                stop = asyncio.ensure_future(self._stopping.wait())
                got = asyncio.ensure_future(wake.wait())
                await asyncio.wait({stop, got}, return_when=asyncio.FIRST_COMPLETED)
                stop.cancel()
                got.cancel()
                continue
            if writer is not None and reader is not None and reader.at_eof():
                # The peer hung up (SIGKILL delivers a FIN): a write on this
                # connection would buffer without erroring and the frame
                # would silently vanish.  Re-dial — the peer may already be
                # back under a new incarnation.
                try:
                    writer.close()
                except Exception:
                    pass
                reader = writer = None
            if writer is None:
                if time.monotonic() < self._down_until.get(peer, 0.0):
                    queue.popleft()  # peer is down: the frame is a loss
                    continue
                conn = await self._dial(peer)
                if conn is None:
                    self._down_until[peer] = time.monotonic() + DIAL_GRACE
                    continue
                reader, writer = conn
            frame = queue[0]
            try:
                write_frame(writer, frame)
                await asyncio.wait_for(writer.drain(), timeout=PEER_IO_TIMEOUT)
                queue.popleft()
            except (ConnectionError, OSError, asyncio.TimeoutError):
                # A drain timeout means the peer stopped reading (dead or
                # wedged): treat it exactly like a reset and re-dial.
                try:
                    writer.close()
                except Exception:
                    pass
                reader = writer = None
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass

    # ------------------------------------------------------------- inbound
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            ftype = frame.get("type")
            if ftype == "msg":
                self.hlc.observe(frame.get("hlc", 0.0))
                assert self.transport is not None
                self.transport.deliver_remote(
                    frame["src"], frame["dst"],
                    decode_message(frame["m"]),
                    frame["seq"], frame["inc"],
                )
            elif ftype == "req":
                self._handle_request(frame, writer)
            elif ftype == "status":
                self._send_status(writer)
            elif ftype == "hello":
                self.hlc.observe(frame.get("hlc", 0.0))
                peer = frame.get("proc")
                if peer in self._down_until:
                    # The peer dialed us: it is demonstrably back up.  Stop
                    # treating its queued frames as crash losses; frames its
                    # reconcile round triggers (probe -> grant Response) must
                    # be delivered, or lease symmetry is stuck asymmetric
                    # until the next TTL sweep touches the edge.
                    del self._down_until[peer]
                    if peer in self._out_wake:
                        self._out_wake[peer].set()
            elif ftype == "shutdown":
                self._stopping.set()
        try:
            writer.close()
        except Exception:
            pass

    @staticmethod
    async def _drain_quietly(writer: asyncio.StreamWriter) -> None:
        try:
            await asyncio.wait_for(writer.drain(), timeout=PEER_IO_TIMEOUT)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass  # requester went away; the reply is already best-effort

    def _reply(self, writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        try:
            write_frame(writer, frame)
            self._retain(asyncio.ensure_future(self._drain_quietly(writer)))
        except (ConnectionError, OSError):
            pass  # requester went away; the protocol state is still valid

    def _handle_request(self, frame: Dict[str, Any], writer: asyncio.StreamWriter) -> None:
        req_id = frame["req"]
        node_id = frame["node"]
        op = frame["op"]
        if node_id not in self.hosted:
            self._reply(writer, {"type": "req_done", "req": req_id,
                                 "error": f"node {node_id} not hosted by {self.proc}",
                                 "hlc": self.hlc.tick()})
            return
        if op not in (WRITE, COMBINE):
            self._reply(writer, {"type": "req_done", "req": req_id,
                                 "error": f"unknown op {op!r}",
                                 "hlc": self.hlc.tick()})
            return
        request = Request(node_id, op, arg=frame.get("arg"))
        # Other processes share the goodput ledger, so no span's message
        # count is exact and no combine is stamped with a probe frontier.
        opened = self.emit_request_begin(req_id, request, overlapped=True)
        if op == WRITE:
            self.nodes[node_id].write(request)
            self._finish_request(writer, opened)
        else:
            self.nodes[node_id].begin_combine(
                request, lambda _done: self._finish_request(writer, opened)
            )

    def _finish_request(self, writer: asyncio.StreamWriter, opened: OpenRequest) -> None:
        self.finish_span(opened)
        q = opened.request
        self._reply(writer, {"type": "req_done", "req": opened.req, "op": q.op,
                             "node": q.node, "value": q.retval,
                             "hlc": self.hlc.tick()})

    def _send_status(self, writer: asyncio.StreamWriter) -> None:
        assert self.transport is not None
        pending_out = sum(len(q) for q in self._out_queues.values())
        open_rounds = sum(len(n.pndg) for n in self.nodes.values())
        self._reply(writer, {
            "type": "status_reply",
            "proc": self.proc,
            "inc": self.incarnation,
            "idle": self.transport.is_quiescent() and pending_out == 0,
            "pending_out": pending_out,
            "open_rounds": open_rounds,
            "events": self.streamer.activity,
            "hlc": self.hlc.tick(),
        })

    # ----------------------------------------------------------------- main
    async def run(self) -> None:
        """Serve until a ``shutdown`` frame arrives."""
        self._build_nodes()
        host, port = self.config.addr(self.proc)
        server = await asyncio.start_server(self._serve_conn, host, port)
        self._server = server
        writer_tasks = [
            asyncio.ensure_future(self._writer_task(peer))
            for peer in sorted(self._out_queues)
        ]
        if self.incarnation > 0:
            await self._recover_from_checkpoints()
        ticks = [
            asyncio.ensure_future(
                self._periodic(self.recovery.sweep_interval, self._sweep_body)
            ),
            asyncio.ensure_future(
                self._periodic(self.config.checkpoint_interval, self._checkpoint_now)
            ),
        ]
        await self._stopping.wait()
        # Final durable checkpoint, then tear down.
        await self._checkpoint_now()
        await asyncio.gather(*ticks, return_exceptions=True)
        # Let outbound queues flush briefly before closing.
        for _ in range(50):
            if all(not q for q in self._out_queues.values()):
                break
            await asyncio.sleep(0.02)
        for task in writer_tasks + self._tasks:
            task.cancel()
        await asyncio.gather(*writer_tasks, *self._tasks, return_exceptions=True)
        server.close()
        await server.wait_closed()
        metrics_path = self.run_dir / f"metrics-{self.proc}.{self.incarnation}.json"
        import json as _json

        metrics_text = (
            _json.dumps(self.metrics.to_dict(), indent=2, sort_keys=True, default=str)
            + "\n"
        )
        await asyncio.get_running_loop().run_in_executor(
            None, metrics_path.write_text, metrics_text
        )
        self.streamer.close()


def serve_node(config_path: str, proc: str, incarnation: int) -> int:
    """Entry point for ``python -m repro serve-node`` (one node process)."""
    config = ClusterConfig.load(config_path)
    server = NodeServer(config, proc, incarnation)
    asyncio.run(server.run())
    return 0


__all__ = ["NodeServer", "serve_node", "DIAL_GRACE"]
