"""Declarative cluster description and the process supervisor.

:class:`ClusterConfig` is the single JSON-serializable artifact a live run
needs: topology, node→process assignment, ports, policy, clock-domain knobs
(lease TTL, checkpoint interval) and the run directory.  The supervisor
writes it to ``<run_dir>/cluster.json``; every node process is spawned as
``python -m repro serve-node --config <path> --proc <name> --incarnation
<k>`` and reads everything else from the file, so a run is reproducible
from one artifact.

:class:`ClusterSupervisor` spawns, monitors, kills and restarts the node
processes, acts as the client frontend (it owns one control connection per
process for write/combine requests and status polls), and keeps its own
JSONL trace stream: ``node_crash`` / ``node_recover`` events for chaos
kills — which the lemma monitors use to excuse crash-edge losses — and the
final ``quiescent`` event the monitors check on.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO, Tuple

#: Upper bound on any single control-socket await (drain): a wedged node
#: process surfaces as an error, never as a hung supervisor (PL603).
CTRL_IO_TIMEOUT = 10.0

from repro.core.runtime import SYSTEM_NODE
from repro.net.clock import HybridClock
from repro.net.transport import read_frame, write_frame
from repro.obs.export import _dump_line
from repro.sim.trace import TraceEvent
from repro.tree.topology import Tree


def free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """OS-assigned free TCP ports (bound briefly, then released)."""
    socks: List[socket.socket] = []
    ports: List[int] = []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind((host, 0))
            socks.append(s)
            ports.append(s.getsockname()[1])
    finally:
        for s in socks:
            s.close()
    return ports


@dataclass
class ClusterConfig:
    """Everything a live run needs, in one JSON-serializable object.

    Attributes
    ----------
    n, edges:
        The aggregation tree.
    assignment:
        Process name -> sorted list of hosted node ids.
    ports:
        Process name -> TCP port (one listener per process, carrying peer
        protocol traffic and supervisor control frames alike).
    host:
        Bind/connect address (localhost deployments).
    policy:
        Lease policy spec (see :func:`~repro.core.policies.parse_policy_spec`).
    lease_ttl:
        Wall-clock seconds a lease survives peer silence before the TTL
        sweep expires it (PaxosLease-style liveness).
    checkpoint_interval:
        Wall-clock seconds between durable checkpoints of each node's
        volatile state.
    run_dir:
        Directory for per-process trace streams, checkpoints, metrics and
        the merged trace.
    """

    n: int
    edges: List[Tuple[int, int]]
    assignment: Dict[str, List[int]] = field(default_factory=dict)
    ports: Dict[str, int] = field(default_factory=dict)
    host: str = "127.0.0.1"
    policy: str = "rww"
    lease_ttl: float = 2.0
    checkpoint_interval: float = 1.0
    run_dir: str = "."

    @classmethod
    def for_tree(
        cls,
        tree: Tree,
        run_dir: str,
        *,
        nodes_per_proc: int = 1,
        policy: str = "rww",
        lease_ttl: float = 2.0,
        checkpoint_interval: float = 1.0,
        host: str = "127.0.0.1",
    ) -> "ClusterConfig":
        """One process per ``nodes_per_proc`` consecutive node ids, with
        OS-assigned free ports."""
        nodes = list(tree.nodes())
        assignment: Dict[str, List[int]] = {}
        for i in range(0, len(nodes), nodes_per_proc):
            chunk = nodes[i : i + nodes_per_proc]
            assignment[f"p{len(assignment)}"] = chunk
        ports = dict(zip(assignment, free_ports(len(assignment), host)))
        return cls(
            n=tree.n,
            edges=[tuple(e) for e in tree.edges],
            assignment=assignment,
            ports=ports,
            host=host,
            policy=policy,
            lease_ttl=lease_ttl,
            checkpoint_interval=checkpoint_interval,
            run_dir=str(run_dir),
        )

    @property
    def tree(self) -> Tree:
        return Tree(self.n, [tuple(e) for e in self.edges])

    @property
    def procs(self) -> List[str]:
        return sorted(self.assignment)

    def proc_of(self, node: int) -> str:
        for proc, nodes in self.assignment.items():
            if node in nodes:
                return proc
        raise KeyError(f"node {node} is not assigned to any process")

    def addr(self, proc: str) -> Tuple[str, int]:
        return (self.host, self.ports[proc])

    # -------------------------------------------------------------- persist
    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "assignment": {p: list(ns) for p, ns in self.assignment.items()},
            "ports": dict(self.ports),
            "host": self.host,
            "policy": self.policy,
            "lease_ttl": self.lease_ttl,
            "checkpoint_interval": self.checkpoint_interval,
            "run_dir": self.run_dir,
        }

    def save(self, path: os.PathLike) -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: os.PathLike) -> "ClusterConfig":
        d = json.loads(pathlib.Path(path).read_text())
        return cls(
            n=d["n"],
            edges=[tuple(e) for e in d["edges"]],
            assignment={p: list(ns) for p, ns in d["assignment"].items()},
            ports={p: int(v) for p, v in d["ports"].items()},
            host=d.get("host", "127.0.0.1"),
            policy=d.get("policy", "rww"),
            lease_ttl=float(d.get("lease_ttl", 2.0)),
            checkpoint_interval=float(d.get("checkpoint_interval", 1.0)),
            run_dir=d.get("run_dir", "."),
        )


class _ProcClient:
    """One control connection to a node process, with a reader task that
    resolves request/status futures."""

    def __init__(
        self,
        name: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.req_futures: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self.status_waiters: List["asyncio.Future[Dict[str, Any]]"] = []
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        while True:
            frame = await read_frame(self.reader)
            if frame is None:
                break
            ftype = frame.get("type")
            if ftype == "req_done":
                fut = self.req_futures.pop(frame["req"], None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
            elif ftype == "status_reply":
                if self.status_waiters:
                    fut = self.status_waiters.pop(0)
                    if not fut.done():
                        fut.set_result(frame)
        # Torn connection: fail whatever is still waiting.
        for fut in list(self.req_futures.values()) + self.status_waiters:
            if not fut.done():
                fut.set_exception(ConnectionError(f"{self.name} went away"))
        self.req_futures.clear()
        self.status_waiters.clear()

    def close(self) -> None:
        self.task.cancel()
        try:
            self.writer.close()
        except Exception:
            pass


class ClusterSupervisor:
    """Spawns and controls the node processes of one live run."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.run_dir = pathlib.Path(config.run_dir)
        self.procs: Dict[str, "subprocess.Popen[bytes]"] = {}
        self.incarnations: Dict[str, int] = {p: 0 for p in config.procs}
        self.clients: Dict[str, _ProcClient] = {}
        self.hlc = HybridClock()
        self._next_req = 0
        self._trace_fh: Optional[TextIO] = None
        self.results: List[Dict[str, Any]] = []
        self.failed: List[Dict[str, Any]] = []

    # -------------------------------------------------------------- tracing
    def emit(self, kind: str, node: int, **detail: Any) -> None:
        """Append one event to the supervisor's JSONL trace stream."""
        if self._trace_fh is None:
            return
        ev = TraceEvent(time=self.hlc.tick(), kind=kind, node=node, detail=detail)
        self._trace_fh.write(_dump_line(ev) + "\n")
        self._trace_fh.flush()

    # ------------------------------------------------------------ lifecycle
    def _spawn(self, proc: str) -> None:
        inc = self.incarnations[proc]
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        log = (self.run_dir / f"proc-{proc}.{inc}.log").open("wb")
        self.procs[proc] = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-node",
                "--config", str(self.run_dir / "cluster.json"),
                "--proc", proc,
                "--incarnation", str(inc),
            ],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=str(self.run_dir),
        )

    async def start(self, ready_timeout: float = 30.0) -> None:
        """Write the config, spawn every process, wait until all answer."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.config.save(self.run_dir / "cluster.json")
        self._trace_fh = (self.run_dir / "trace-supervisor.jsonl").open("w")
        for proc in self.config.procs:
            self._spawn(proc)
        for proc in self.config.procs:
            await self._connect(proc, timeout=ready_timeout)

    async def _connect(self, proc: str, timeout: float = 30.0) -> _ProcClient:
        existing = self.clients.get(proc)
        if existing is not None and not existing.task.done():
            return existing
        host, port = self.config.addr(proc)
        deadline = time.monotonic() + timeout
        last_exc: Optional[BaseException] = None
        while time.monotonic() < deadline:
            child = self.procs.get(proc)
            if child is not None and child.poll() is not None:
                raise RuntimeError(
                    f"process {proc} exited with {child.returncode} before "
                    f"becoming ready (see {self.run_dir}/proc-{proc}.*.log)"
                )
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    timeout=max(deadline - time.monotonic(), 0.05),
                )
                write_frame(writer, {"type": "hello", "proc": "supervisor", "inc": 0})
                await asyncio.wait_for(writer.drain(), CTRL_IO_TIMEOUT)
                client = _ProcClient(proc, reader, writer)
                self.clients[proc] = client
                # One status round-trip proves the server loop is live.
                await self._status(client)
                return client
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_exc = exc
                await asyncio.sleep(0.05)
        raise TimeoutError(f"process {proc} not ready after {timeout}s: {last_exc}")

    # -------------------------------------------------------------- requests
    async def submit(
        self, node: int, op: str, arg: Any = None, timeout: float = 30.0
    ) -> Dict[str, Any]:
        """Submit one write/combine to the hosting process; await its
        ``req_done``.  A timeout marks the request failed (recorded, not
        raised) — the chaos acceptance counts these."""
        req_id = self._next_req
        self._next_req += 1
        proc = self.config.proc_of(node)
        client = await self._connect(proc)
        fut: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        client.req_futures[req_id] = fut
        write_frame(
            client.writer,
            {
                "type": "req", "req": req_id, "node": node, "op": op,
                "arg": arg, "hlc": self.hlc.tick(),
            },
        )
        await asyncio.wait_for(client.writer.drain(), CTRL_IO_TIMEOUT)
        try:
            frame = await asyncio.wait_for(fut, timeout)
        except (asyncio.TimeoutError, ConnectionError) as exc:
            record = {"req": req_id, "node": node, "op": op, "error": str(exc) or "timeout"}
            self.failed.append(record)
            client.req_futures.pop(req_id, None)
            return record
        self.hlc.observe(frame.get("hlc", 0.0))
        self.results.append(frame)
        return frame

    async def _status(self, client: _ProcClient) -> Dict[str, Any]:
        fut: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        client.status_waiters.append(fut)
        write_frame(client.writer, {"type": "status"})
        await asyncio.wait_for(client.writer.drain(), CTRL_IO_TIMEOUT)
        frame = await asyncio.wait_for(fut, 10.0)
        self.hlc.observe(frame.get("hlc", 0.0))
        return frame

    async def quiesce(
        self, *, stable_polls: int = 2, gap: float = 0.2, timeout: float = 30.0
    ) -> bool:
        """Poll every process until all report idle with stable event
        counts for ``stable_polls`` consecutive rounds."""
        deadline = time.monotonic() + timeout
        stable = 0
        last_sig: Optional[Tuple[Any, ...]] = None
        while time.monotonic() < deadline:
            sigs: List[Tuple[Any, ...]] = []
            idle = True
            for proc in self.config.procs:
                try:
                    st = await self._status(await self._connect(proc, timeout=5.0))
                except (TimeoutError, ConnectionError, OSError, RuntimeError):
                    idle = False
                    sigs.append((proc, "down"))
                    continue
                idle = idle and st.get("idle", False)
                sigs.append((proc, st.get("events"), st.get("inc")))
            sig = tuple(sigs)
            if idle and sig == last_sig:
                stable += 1
                if stable >= stable_polls:
                    return True
            else:
                stable = 0
            last_sig = sig
            await asyncio.sleep(gap)
        return False

    # ----------------------------------------------------------------- chaos
    async def kill_proc(self, proc: str) -> None:
        """SIGKILL a node process mid-run (no cleanup, no flushing —
        volatile state is genuinely gone)."""
        child = self.procs.get(proc)
        if child is None or child.poll() is not None:
            return
        child.send_signal(signal.SIGKILL)
        child.wait()
        client = self.clients.pop(proc, None)
        if client is not None:
            client.close()
        for node in self.config.assignment[proc]:
            self.emit("node_crash", node)

    async def restart_proc(self, proc: str, ready_timeout: float = 30.0) -> None:
        """Respawn a killed process with a bumped incarnation; it restores
        its checkpoint and runs the lease reconciliation round itself."""
        self.incarnations[proc] += 1
        for node in self.config.assignment[proc]:
            self.emit("node_recover", node)
        self._spawn(proc)
        await self._connect(proc, timeout=ready_timeout)

    # -------------------------------------------------------------- shutdown
    async def shutdown(self, *, quiescent_event: bool = True) -> None:
        """Settle, stamp the final ``quiescent`` event, stop every process."""
        if quiescent_event:
            self.emit("quiescent", SYSTEM_NODE)
        for proc, client in list(self.clients.items()):
            try:
                write_frame(client.writer, {"type": "shutdown"})
                await asyncio.wait_for(client.writer.drain(), CTRL_IO_TIMEOUT)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
        deadline = time.monotonic() + 10.0
        for proc, child in self.procs.items():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, lambda c=child, r=remaining: c.wait(timeout=r)
                )
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        for client in self.clients.values():
            client.close()
        self.clients.clear()
        if self._trace_fh is not None:
            self._trace_fh.close()
            self._trace_fh = None


__all__ = [
    "ClusterConfig",
    "ClusterSupervisor",
    "free_ports",
]
