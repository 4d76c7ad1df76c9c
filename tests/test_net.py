"""The live deployment: wire codec, asyncio transport, serve cluster.

Four layers, tested bottom-up:

* the canonical wire codec round-trips every ``Message`` subclass (and the
  registry is complete against ``Message.__subclasses__()`` — the dynamic
  twin of protolint's static PL102 rule);
* :class:`~repro.net.transport.AsyncioTransport` as a ``NodeServer`` runs
  it, over a running event loop: edge validation, FIFO loopback delivery
  with per-edge ``seq`` stamps, replay dedup and socket egress;
* a real :class:`~repro.net.server.NodeServer` over TCP: a loopback
  request round trip; a differential that drives one server hosting a
  whole tree with the sequential engine's workload and requires the
  engine's combine values, message count and delivery order; the
  server's hosted ``RecoveryManager`` (re-probes skip peers inside the
  dial cooldown); and the full multi-process
  :class:`~repro.net.cluster.ClusterSupervisor` path — including the
  chaos acceptance: SIGKILL two of seven processes mid-run, restart them,
  and re-verify the merged traces offline;
* the clock-domain parameterization of
  :class:`~repro.sim.reliability.ReliableNetwork`: the retransmission
  backoff schedule is a pure function of the clock domain, and the default
  is byte-identical to an explicit ``SimClock``.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.core.engine import AggregationSystem
from repro.core.messages import Message, Probe, Release, Response, Revoke, Update
from repro.core.policies import parse_policy_spec
from repro.core.runtime import SYSTEM_NODE, NodeRuntime
from repro.net import (
    AsyncioTransport,
    ClusterConfig,
    ClusterSupervisor,
    HybridClock,
    NodeServer,
    decode_message,
    dumps_message,
    encode_message,
    loads_message,
    merge_run_dir,
    synthesize_losses,
    verify_merged,
)
from repro.net.cluster import free_ports
from repro.net.codec import _ENCODERS
from repro.net.merge import load_events, merge_traces
from repro.net.transport import (
    MAX_FRAME,
    frame_bytes,
    message_frame,
    read_frame,
    write_frame,
)
from repro.sim.faults import FaultPlan
from repro.sim.reliability import ReliabilityConfig, ReliableNetwork
from repro.sim.scheduler import SimClock, Simulator
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceEvent, TraceLog
from repro.tree import path_tree, random_tree
from repro.workloads import Request, combine, write
from repro.workloads.requests import COMBINE, WRITE, copy_sequence

from tests.conftest import make_mixed_sequence


# ===================================================================== codec
def sample_messages():
    """One richly populated instance of every message type."""
    wlog = (
        write(0, 5.0),
        combine(2),
        Request(node=1, op=COMBINE, retval=7.0, index=3,
                initiated_at=1.5, completed_at=2.5, scope=4, failed=True),
    )
    return [
        Probe(),
        Response(x=3.25, flag=True, wlog=wlog),
        Response(x=None, flag=False),
        Update(x=-1.5, id=7, wlog=wlog),
        Update(x=0.0, id=0),
        Revoke(),
        Release(S=frozenset({3, 1, 2})),
        Release(S=frozenset()),
    ]


class TestCodec:
    @pytest.mark.parametrize("message", sample_messages(),
                             ids=lambda m: type(m).__name__)
    def test_round_trip(self, message):
        again = decode_message(encode_message(message))
        assert type(again) is type(message)
        assert again == message

    @pytest.mark.parametrize("message", sample_messages(),
                             ids=lambda m: type(m).__name__)
    def test_text_round_trip(self, message):
        assert loads_message(dumps_message(message)) == message

    def test_registry_covers_every_message_subclass(self):
        # The dynamic twin of protolint rule PL102: a new Message subclass
        # must land in the codec registry before it can reach a socket.
        missing = [
            cls.__name__ for cls in Message.__subclasses__()
            if cls not in _ENCODERS
        ]
        assert missing == []

    def test_canonical_bytes_are_deterministic(self):
        a = dumps_message(Release(S=frozenset({5, 1, 3})))
        b = dumps_message(Release(S=frozenset({3, 5, 1})))
        assert a == b
        assert json.loads(a)["S"] == [1, 3, 5]

    def test_unregistered_type_raises_with_pl102_hint(self):
        class Rogue(Message):
            pass

        try:
            with pytest.raises(TypeError, match="PL102"):
                encode_message(Rogue())
        finally:
            # Keep the completeness test honest for later collection orders.
            Message.__subclasses__()

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown message kind"):
            decode_message({"kind": "gossip"})


# ==================================================================== frames
class TestFrames:
    async def test_frame_round_trip_over_stream(self):
        reader = asyncio.StreamReader()
        obj = {"type": "msg", "src": 0, "dst": 1, "seq": 3,
               "m": encode_message(Update(x=1.5, id=2))}
        reader.feed_data(frame_bytes(obj) + frame_bytes({"type": "status"}))
        reader.feed_eof()
        assert await read_frame(reader) == obj
        assert await read_frame(reader) == {"type": "status"}
        assert await read_frame(reader) is None  # clean EOF

    async def test_torn_frame_reads_as_eof(self):
        reader = asyncio.StreamReader()
        reader.feed_data(frame_bytes({"type": "status"})[:3])
        reader.feed_eof()
        assert await read_frame(reader) is None

    async def test_oversize_frame_rejected(self):
        import struct

        reader = asyncio.StreamReader()
        reader.feed_data(struct.pack(">I", MAX_FRAME + 1))
        reader.feed_eof()
        with pytest.raises(ValueError, match="MAX_FRAME"):
            await read_frame(reader)

    async def test_idle_timeout_raises_to_caller(self):
        # Header wait (connection idleness) is bounded only on request;
        # the timeout surfaces so idle policy stays with the caller.
        reader = asyncio.StreamReader()
        with pytest.raises(asyncio.TimeoutError):
            await read_frame(reader, timeout=0.05)

    async def test_torn_payload_times_out_as_eof(self):
        # A peer that dies after the header must not wedge the reader:
        # the payload wait is bounded and a stall reads as EOF, the same
        # as a torn connection (asynclint PL603's dynamic twin).
        reader = asyncio.StreamReader()
        reader.feed_data(frame_bytes({"type": "status"})[:5])  # header + 1 byte
        assert await read_frame(reader, payload_timeout=0.05) is None

    async def test_slow_but_live_header_wait_succeeds(self):
        reader = asyncio.StreamReader()

        async def feed_later():
            await asyncio.sleep(0.02)
            reader.feed_data(frame_bytes({"type": "status"}))

        task = asyncio.ensure_future(feed_later())
        assert await read_frame(reader, timeout=5.0) == {"type": "status"}
        await task

    def test_message_frame_round_trip(self):
        msg = Response(x=2.0, flag=True)
        frame = message_frame(1, 0, msg, seq=4, inc=2, hlc=9.5)
        assert frame["seq"] == 4 and frame["inc"] == 2
        assert decode_message(frame["m"]) == msg


# ============================================================ transport unit
def make_transport(hosted=None):
    """A transport on ``path_tree(3)`` as a ``NodeServer`` builds it, over
    the running loop, hosting ``hosted`` (default: every node)."""
    tree = path_tree(3)
    received, egress = [], []
    t = AsyncioTransport(
        tree,
        lambda s, d, m: received.append((s, d, m)),
        clock=HybridClock().tick,
        stats=MessageStats(),
        trace=TraceLog(enabled=True),
        local_nodes=set(tree.nodes()) if hosted is None else hosted,
        remote_send=lambda s, d, m, seq: egress.append((s, d, m, seq)),
        loop=asyncio.get_running_loop(),
        incarnation=0,
    )
    return t, received, egress


class TestAsyncioTransportUnit:
    async def test_rejects_non_edge(self):
        t, _, _ = make_transport()
        with pytest.raises(ValueError, match="not a tree edge"):
            t.send(0, 2, Probe())
        with pytest.raises(ValueError, match="not a tree edge"):
            t.send(2, 0, Probe())

    async def test_fifo_delivery_and_seq_stamps(self):
        t, received, _ = make_transport()
        t.send(0, 1, Probe())
        t.send(0, 1, Revoke())
        assert not t.is_quiescent() and received == []
        await asyncio.sleep(0)  # one loop pass: the pump send scheduled runs
        assert t.is_quiescent()
        assert [(s, d, type(m).__name__) for s, d, m in received] == [
            (0, 1, "Probe"), (0, 1, "Revoke"),
        ]
        sends = t.trace.events(kind="send")
        assert [ev.detail["seq"] for ev in sends] == [0, 1]
        assert all(ev.detail["inc"] == 0 for ev in sends)

    async def test_deliver_remote_dedups_replayed_frames(self):
        t, received, _ = make_transport()
        t.deliver_remote(0, 1, Probe(), seq=0, inc=0)
        t.deliver_remote(0, 1, Probe(), seq=0, inc=0)  # TCP reconnect replay
        t.deliver_remote(0, 1, Revoke(), seq=1, inc=0)
        assert len(received) == 2
        # A new incarnation restarts seq numbering and must get through.
        t.deliver_remote(0, 1, Probe(), seq=0, inc=1)
        assert len(received) == 3

    async def test_sends_to_unhosted_nodes_go_to_remote_egress(self):
        t, received, egress = make_transport(hosted={0, 1})
        t.send(1, 2, Probe())
        t.send(1, 2, Revoke())
        assert t.is_quiescent()
        assert [(s, d, type(m).__name__, seq) for s, d, m, seq in egress] == [
            (1, 2, "Probe", 0), (1, 2, "Revoke", 1),
        ]
        await asyncio.sleep(0)
        assert received == []


# ==================================================================== clock
class TestHybridClock:
    def test_strictly_monotone(self):
        hlc = HybridClock()
        stamps = [hlc.tick() for _ in range(100)]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_observe_folds_remote_stamp(self):
        hlc = HybridClock()
        remote = hlc.tick() + 1000.0
        hlc.observe(remote)
        assert hlc.tick() > remote


# ================================================================== cluster
class TestClusterConfig:
    def test_for_tree_assignment_and_round_trip(self, tmp_path):
        tree = random_tree(7, seed=1)
        config = ClusterConfig.for_tree(tree, str(tmp_path), nodes_per_proc=2,
                                        policy="always", lease_ttl=1.5)
        assert config.procs == ["p0", "p1", "p2", "p3"]
        hosted = [n for p in config.procs for n in config.assignment[p]]
        assert sorted(hosted) == list(range(7))
        assert config.proc_of(6) == "p3"
        assert len(set(config.ports.values())) == 4
        config.save(tmp_path / "cluster.json")
        again = ClusterConfig.load(tmp_path / "cluster.json")
        assert again.to_dict() == config.to_dict()
        assert again.tree.edges == tree.edges

    def test_free_ports_are_distinct(self):
        ports = free_ports(5)
        assert len(set(ports)) == 5

    def test_policy_specs(self):
        for spec in ["rww", "always", "never", "ab:1,2"]:
            factory, _ = parse_policy_spec(spec)
            assert callable(factory)
        with pytest.raises(ValueError, match="unknown policy"):
            parse_policy_spec("sometimes")


# ================================================================= loopback
async def _connect_with_retry(host, port, attempts=100):
    for _ in range(attempts):
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            await asyncio.sleep(0.05)
    raise ConnectionError(f"server at {host}:{port} never came up")


class TestLoopbackServe:
    async def test_single_node_loopback(self, tmp_path):
        """One NodeServer, one real TCP connection, full control protocol."""
        config = ClusterConfig.for_tree(path_tree(1), str(tmp_path),
                                        lease_ttl=10.0, checkpoint_interval=10.0)
        server = NodeServer(config, "p0", incarnation=0)
        task = asyncio.create_task(server.run())
        reader, writer = await _connect_with_retry(*config.addr("p0"))
        try:
            write_frame(writer, {"type": "hello", "proc": "test", "inc": 0})
            write_frame(writer, {"type": "req", "req": 0, "node": 0,
                                 "op": WRITE, "arg": 7.5, "hlc": 0.0})
            await writer.drain()
            done = await asyncio.wait_for(read_frame(reader), 5.0)
            assert done["type"] == "req_done" and done["req"] == 0
            assert done["op"] == WRITE

            write_frame(writer, {"type": "req", "req": 1, "node": 0,
                                 "op": COMBINE, "arg": None, "hlc": 0.0})
            await writer.drain()
            done = await asyncio.wait_for(read_frame(reader), 5.0)
            assert done["req"] == 1 and done["value"] == 7.5

            # A request for a node this process does not host fails cleanly.
            write_frame(writer, {"type": "req", "req": 2, "node": 9,
                                 "op": WRITE, "arg": 1.0, "hlc": 0.0})
            await writer.drain()
            done = await asyncio.wait_for(read_frame(reader), 5.0)
            assert "not hosted" in done["error"]

            write_frame(writer, {"type": "status"})
            await writer.drain()
            status = await asyncio.wait_for(read_frame(reader), 5.0)
            assert status["type"] == "status_reply"
            assert status["idle"] and status["open_rounds"] == 0

            write_frame(writer, {"type": "shutdown"})
            await writer.drain()
            await asyncio.wait_for(task, 10.0)
        finally:
            writer.close()
            if not task.done():
                task.cancel()

        events = load_events(tmp_path / "trace-p0.0.jsonl")
        kinds = {ev.kind for ev in events}
        assert "write_begin" in kinds and "combine_begin" in kinds
        spans = [ev for ev in events if ev.kind == "span"]
        assert {ev.detail["op"] for ev in spans} == {WRITE, COMBINE}
        assert (tmp_path / f"metrics-p0.0.json").exists()


class TestServeDifferential:
    async def test_one_process_serve_matches_the_sequential_engine(self, tmp_path):
        """One NodeServer hosting a whole tree, driven one request at a time
        over its control connection, returns the sequential engine's
        combine values, sends its message count and delivers its messages
        in its order: the automaton cannot tell the live transport from
        the simulator's."""
        tree = random_tree(5, seed=11)
        sequence = make_mixed_sequence(5, 60, seed=7)
        ref = AggregationSystem(tree, trace_enabled=True).run(copy_sequence(sequence))
        # TTLs and checkpoints far beyond the run: no sweep sends a message.
        config = ClusterConfig.for_tree(tree, str(tmp_path), nodes_per_proc=tree.n,
                                        lease_ttl=600.0, checkpoint_interval=600.0)
        server = NodeServer(config, "p0", incarnation=0)
        task = asyncio.create_task(server.run())
        reader, writer = await _connect_with_retry(*config.addr("p0"))
        values = []
        try:
            for i, q in enumerate(sequence):
                write_frame(writer, {"type": "req", "req": i, "node": q.node,
                                     "op": q.op, "arg": q.arg, "hlc": 0.0})
                await writer.drain()
                done = await asyncio.wait_for(read_frame(reader), 5.0)
                assert done["req"] == i and "error" not in done, done
                if q.op == COMBINE:
                    values.append(done["value"])
            write_frame(writer, {"type": "shutdown"})
            await writer.drain()
            await asyncio.wait_for(task, 10.0)
        finally:
            writer.close()
            if not task.done():
                task.cancel()
        assert len(values) == 35
        assert values == ref.combine_results()
        assert server.stats.total == ref.total_messages
        # Order and completeness too: a reordered or lost message can leave
        # every combine value and the message count unchanged.
        events = load_events(tmp_path / "trace-p0.0.jsonl")
        delivered = [(ev.detail["src"], ev.node, ev.detail["msg"])
                     for ev in events if ev.kind == "deliver"]
        assert delivered == [(ev.detail["src"], ev.node, ev.detail["msg"])
                             for ev in ref.trace.events(kind="recv")]
        # One request lifecycle on both hosts: the same request metrics, and
        # the same span per request, write values included.
        metrics = json.loads((tmp_path / "metrics-p0.0.json").read_text())
        assert (metrics["counters"]["requests_total"]
                == ref.metrics.snapshot()["counters"]["requests_total"])
        assert [(ev.node, ev.detail["op"], ev.detail.get("value"))
                for ev in events if ev.kind == "span"] == [
            (s.node, s.op, s.value) for s in ref.spans]


class TestServeRecovery:
    async def test_reprobe_skips_peer_inside_dial_cooldown(self, tmp_path):
        """The hosted manager's down check is the writer's dial cooldown: a
        stuck round does not re-probe a peer whose process is down, and
        does once the cooldown clears."""
        ttl = 1.0
        config = ClusterConfig.for_tree(path_tree(2), str(tmp_path), nodes_per_proc=1,
                                        lease_ttl=ttl, checkpoint_interval=10.0)
        server = NodeServer(config, "p0", incarnation=0)
        server._build_nodes()
        peer = config.proc_of(1)

        def reprobes():
            # The streamed trace is the process's record of its events.
            events = load_events(tmp_path / "trace-p0.0.jsonl")
            return sum(ev.kind == "reprobe" for ev in events)

        try:
            # Node 0's probe to node 1 is queued and never delivered.
            server.nodes[0].begin_combine(combine(0), lambda done: None)
            assert server.nodes[0].snt[0] == {1}
            server._sweep_body()  # first sighting of the round
            # A frame stamped two TTLs ahead: the round is now stuck.
            server.hlc.observe(server.hlc.last + 2 * ttl)
            server._down_until[peer] = time.monotonic() + 60.0
            server._sweep_body()
            assert reprobes() == 0
            queued = len(server._out_queues[peer])

            del server._down_until[peer]  # the peer's hello clears it
            server._sweep_body()
            assert reprobes() == 1
            assert len(server._out_queues[peer]) == queued + 1
        finally:
            server.streamer.close()


class TestServePolicies:
    async def test_random_policy_coins_follow_node_ids(self, tmp_path):
        """Every process seeds node k's coin as one runtime over the whole
        tree does, so no two processes share a coin stream."""
        tree = path_tree(3)
        config = ClusterConfig.for_tree(tree, str(tmp_path), policy="random:0.5")
        runtime = NodeRuntime(tree, policy_factory=parse_policy_spec("random:0.5")[0])
        for proc in config.procs:
            server = NodeServer(config, proc, incarnation=0)
            server._build_nodes()
            try:
                for nid, node in server.nodes.items():
                    expected = runtime.nodes[nid].policy.rng.getstate()
                    assert node.policy.rng.getstate() == expected, (proc, nid)
            finally:
                server.streamer.close()


# ============================================================ process tree
class TestClusterServe:
    async def _drive(self, sup, config, requests):
        total = 0.0
        for node, op, arg in requests:
            frame = await sup.submit(node, op, arg=arg, timeout=20.0)
            if op == WRITE:
                total += arg
            else:
                assert "value" in frame, frame
        return total

    async def test_five_node_process_tree(self, tmp_path):
        """5 nodes across 3 OS processes: submit, settle, merge, verify."""
        tree = random_tree(5, seed=2)
        config = ClusterConfig.for_tree(tree, str(tmp_path), nodes_per_proc=2,
                                        lease_ttl=5.0, checkpoint_interval=2.0)
        sup = ClusterSupervisor(config)
        await sup.start()
        try:
            reqs = [(0, WRITE, 2.0), (3, WRITE, 5.0), (1, COMBINE, None),
                    (4, WRITE, -1.0), (2, COMBINE, None), (0, COMBINE, None)]
            await self._drive(sup, config, reqs)
            assert await sup.quiesce(timeout=20.0)
        finally:
            await sup.shutdown()

        assert sup.failed == []
        combines = [r for r in sup.results if r.get("op") == COMBINE]
        assert len(combines) == 3
        # Serial supervisor-driven requests settle between submits, so
        # every combine sees every prior write.
        assert combines[-1]["value"] == pytest.approx(6.0)

        events, files, synthesized = merge_run_dir(tmp_path)
        assert synthesized == 0  # no crashes, no losses to explain
        assert len(files) >= 4   # 3 process streams + the supervisor's
        verdict = verify_merged(events, n_nodes=config.n)
        assert verdict["ok"], verdict

    async def test_chaos_kill_and_restart(self, tmp_path):
        """The ISSUE acceptance: a 7-process tree survives SIGKILLing two
        processes; merged traces still verify causally with zero
        violations and every non-failed combine completed."""
        tree = random_tree(7, seed=3)
        config = ClusterConfig.for_tree(tree, str(tmp_path), nodes_per_proc=1,
                                        lease_ttl=1.0, checkpoint_interval=0.5)
        sup = ClusterSupervisor(config)
        await sup.start()
        victims = ["p2", "p4"]
        combines = 0
        try:
            for i in range(18):
                if i == 6:
                    for p in victims:
                        await sup.kill_proc(p)
                if i == 12:
                    for p in victims:
                        await sup.restart_proc(p)
                node = (i * 3) % config.n
                dead = 6 <= i < 12
                try:
                    if i % 3 == 2 and not dead:
                        combines += 1
                        await sup.submit(node, COMBINE, timeout=15.0)
                    else:
                        await sup.submit(node, WRITE, arg=float(i),
                                         timeout=4.0 if dead else 15.0)
                except (RuntimeError, TimeoutError, ConnectionError, OSError):
                    pass  # dead-window request; recorded in sup.failed
            assert await sup.quiesce(timeout=25.0)
        finally:
            await sup.shutdown()

        completed = sum(1 for r in sup.results
                        if r.get("op") == COMBINE and "value" in r)
        failed = sum(1 for r in sup.failed if r.get("op") == COMBINE)
        assert completed + failed == combines
        assert completed >= 1

        events, files, synthesized = merge_run_dir(tmp_path)
        # Restarted incarnations leave their own trace streams.
        assert any(".1.jsonl" in f for f in files)
        crash_nodes = {ev.node for ev in events if ev.kind == "node_crash"}
        assert crash_nodes == {config.assignment[p][0] for p in victims}
        verdict = verify_merged(events, n_nodes=config.n)
        assert verdict["causal"]["ok"], verdict["causal"]
        assert verdict["monitor_violations"] == []
        assert verdict["ok"], verdict


# ============================================================ loss synthesis
def _ev(time, kind, node, **detail):
    return TraceEvent(time=time, kind=kind, node=node, detail=detail)


class TestLossSynthesis:
    def test_crash_edge_loss_synthesized(self):
        events = [
            _ev(1.0, "send", 0, dst=1, msg="update", seq=0, inc=0),
            _ev(2.0, "node_crash", 1),
            _ev(3.0, "node_recover", 1),
            _ev(4.0, "send", 0, dst=1, msg="update", seq=1, inc=0),
            _ev(5.0, "deliver", 1, src=0, msg="update", seq=1, inc=0),
            _ev(6.0, "quiescent", SYSTEM_NODE),
        ]
        out, n = synthesize_losses(events)
        assert n == 1
        failed = [ev for ev in out if ev.kind == "delivery_failed"]
        assert len(failed) == 1
        ev = failed[0]
        assert ev.node == 0 and ev.detail["dst"] == 1 and ev.detail["seq"] == 0
        assert ev.detail["synthesized"] is True
        idx = out.index(ev)
        # After the crash that explains it, before the later delivery.
        assert idx > next(i for i, e in enumerate(out) if e.kind == "node_crash")
        assert idx < next(i for i, e in enumerate(out) if e.kind == "deliver")

    def test_healthy_edge_loss_left_for_the_checkers(self):
        events = [
            _ev(1.0, "send", 0, dst=1, msg="update", seq=0, inc=0),
            _ev(2.0, "quiescent", SYSTEM_NODE),
        ]
        out, n = synthesize_losses(events)
        assert n == 0 and out == events

    def test_merge_orders_by_hlc_then_stream(self, tmp_path):
        a, b = tmp_path / "trace-a.jsonl", tmp_path / "trace-b.jsonl"
        a.write_text('{"t": 2.0, "kind": "send", "node": 0, "dst": 1, "msg": "probe"}\n'
                     '{"t": 5.0, "kind": "deliver", "node": 0, "src": 1, "msg": "response"}\n')
        b.write_text('{"t": 3.0, "kind": "deliver", "node": 1, "src": 0, "msg": "probe"}\n'
                     '{"t": 4.0, "kind": "send", "node": 1, "dst": 0, "msg": "response"}\n'
                     '{"t": 6.0, "kind"')
        events = merge_traces([b, a])
        assert [ev.time for ev in events] == [2.0, 3.0, 4.0, 5.0]
        assert [ev.kind for ev in events] == ["send", "deliver", "send", "deliver"]


# ===================================== satellite: reliability clock domain
class _RecordingTimer:
    def __init__(self, inner, delays):
        self._inner = inner
        self._delays = delays

    def start(self, delay, action):
        self._delays.append(delay)
        self._inner.start(delay, action)

    def cancel(self):
        self._inner.cancel()


class _RecordingClock:
    """A SimClock wrapper that records every retransmission-timer delay —
    the backoff schedule as seen *through the clock-domain seam*."""

    def __init__(self, sim):
        self._inner = SimClock(sim)
        self.delays = []

    @property
    def now(self):
        return self._inner.now

    def timer(self):
        return _RecordingTimer(self._inner.timer(), self.delays)


def _run_lossy_send(clock=None, heal_at=6.5, config=None, trace=None):
    sim = Simulator()
    received = []
    net = ReliableNetwork(
        path_tree(2), sim, receiver=lambda s, d, m: received.append((s, d, m)),
        config=config or ReliabilityConfig(base_timeout=1.0, backoff=2.0,
                                           max_timeout=4.0, max_retries=10),
        plan=FaultPlan(drop_prob=1.0),
        trace=trace,
        clock=clock(sim) if callable(clock) else clock,
    )
    if heal_at is not None:
        sim.schedule_at(heal_at, lambda: setattr(net.inner, "plan", FaultPlan()))
    net.send(0, 1, Update(x=1.0, id=0))
    sim.run()
    return net, received


class TestReliabilityClockDomain:
    def test_default_clock_is_simclock_over_the_simulator(self):
        sim = Simulator()
        net = ReliableNetwork(path_tree(2), sim, receiver=lambda *a: None,
                              config=ReliabilityConfig())
        assert isinstance(net.clock, SimClock)
        assert net.clock.sim is sim

    def test_explicit_simclock_schedule_identical_to_default(self):
        """Satellite regression: parameterizing the timer source must not
        perturb virtual-time behavior — the full trace (timestamps,
        retransmits, delivery) is identical with and without an explicit
        ``SimClock``."""
        fingerprints = []
        for clock in (None, SimClock):
            trace = TraceLog(enabled=True)
            net, received = _run_lossy_send(clock=clock, trace=trace)
            assert len(received) == 1
            fingerprints.append([
                (ev.time, ev.kind, ev.node, ev.detail.get("seq"))
                for ev in trace.events()
            ])
        assert fingerprints[0] == fingerprints[1]
        assert any(kind == "retransmit" for _, kind, _, _ in fingerprints[0])

    def test_backoff_schedule_observed_through_the_clock(self):
        """Exponential backoff base*2^k capped at max_timeout, driven
        entirely through clock.timer() — the property the wall-clock
        domain inherits unchanged."""
        config = ReliabilityConfig(base_timeout=2.0, backoff=2.0,
                                   max_timeout=8.0, max_retries=3)
        recording = {}

        def make_clock(sim):
            recording["clock"] = _RecordingClock(sim)
            return recording["clock"]

        net, received = _run_lossy_send(clock=make_clock, heal_at=None,
                                        config=config)
        assert received == []  # never healed: the retry budget runs out
        assert recording["clock"].delays == [2.0, 4.0, 8.0, 8.0]
        assert len(net.failures) == 1
        assert net.failures[0].attempts == config.max_retries + 1
