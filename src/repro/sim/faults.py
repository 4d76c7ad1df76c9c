"""The simulated wire of the concurrent model, with fault injection.

:class:`FaultyNetwork` moves messages along directed tree edges under a
:class:`~repro.sim.scheduler.Simulator` clock.  Each directed edge draws
its delays from its own random stream (a
:data:`~repro.sim.channel.LatencyModel`) and clamps each delivery time to
be no earlier than the previous one on that edge, so under the default,
faultless :class:`FaultPlan` every edge is the reliable FIFO channel with
latency of Section 5.

The paper's model assumes *reliable FIFO* channels and permanently-live
nodes; every guarantee (strict consistency, causal consistency, the
message-count lemmas) is proven under those assumptions.  A fault plan
makes them testable by injecting three classic link faults:

* **drop** — a message silently vanishes;
* **duplicate** — a message is delivered twice;
* **reorder** — a message's delivery skips the FIFO clamp, so it may
  overtake earlier messages on the same channel;

plus *scheduled* process/link failures declared up front in the
:class:`FaultPlan` (built with the :func:`crash` / :func:`recover` /
:func:`partition` / :func:`heal` helpers):

* **crash(node, t)** — from ``t`` on, all traffic to or from the node is
  black-holed until a matching recover;
* **recover(node, t)** — the node is reachable again (state restoration is
  the recovery layer's job — the wire only reopens);
* **partition(edges, t0)** / **heal(t1)** — the listed tree edges stop
  carrying traffic in both directions, then carry it again.

Every black-holed message is a **declared loss**: the wire emits a
``delivery_failed`` trace event for it, so the offline causal checker
(:mod:`repro.verify.causal`) can tell an announced crash casualty from a
silent protocol bug.  Fault lifecycle events (``node_crash``,
``node_recover``, ``partition``, ``heal``) are traced here too — the wire
is the single source of truth for *when* a scheduled fault took effect —
and forwarded to registered fault listeners (the recovery manager, the
engines) that own the node-level consequences.

Injected faults are recorded (:class:`FaultLog`) so tests can correlate
observed protocol damage (hung combines, consistency violations, broken
invariants) with specific faults — the failure-injection experiments in
``tests/test_faults.py`` demonstrate both that the mechanism *depends* on
the assumptions and that the consistency checkers *detect* the fallout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sim.channel import LatencyModel, constant_latency
from repro.sim.network import Receiver
from repro.sim.scheduler import Simulator
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree

#: Scheduled-fault kinds understood by :class:`FaultyNetwork`.
SCHEDULED_KINDS = ("crash", "recover", "partition", "heal")


@dataclass(frozen=True)
class ScheduledFault:
    """One deterministic fault event: at ``time``, apply ``kind``.

    ``crash``/``recover`` name a ``node``; ``partition``/``heal`` name
    undirected ``edges`` (``heal`` with no edges heals every cut edge).
    Build these with the :func:`crash`/:func:`recover`/:func:`partition`/
    :func:`heal` helpers rather than by hand.
    """

    time: float
    kind: str
    node: Optional[int] = None
    edges: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULED_KINDS:
            raise ValueError(
                f"unknown scheduled fault kind {self.kind!r}; "
                f"expected one of {SCHEDULED_KINDS}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind in ("crash", "recover"):
            if self.node is None:
                raise ValueError(f"{self.kind} fault needs a node")
        elif self.kind == "partition" and not self.edges:
            raise ValueError("partition fault needs at least one edge")

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"time": self.time, "kind": self.kind}
        if self.node is not None:
            d["node"] = self.node
        if self.edges:
            d["edges"] = [list(e) for e in self.edges]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ScheduledFault":
        return cls(
            time=float(d["time"]),
            kind=d["kind"],
            node=d.get("node"),
            edges=tuple((int(u), int(v)) for u, v in d.get("edges", ())),
        )


def crash(node: int, t: float) -> ScheduledFault:
    """Schedule node ``node`` to crash at virtual time ``t``."""
    return ScheduledFault(time=t, kind="crash", node=node)


def recover(node: int, t: float) -> ScheduledFault:
    """Schedule node ``node`` to recover at virtual time ``t``."""
    return ScheduledFault(time=t, kind="recover", node=node)


def partition(edges: Any, t0: float) -> ScheduledFault:
    """Schedule the undirected ``edges`` to be cut from time ``t0``."""
    return ScheduledFault(
        time=t0, kind="partition", edges=tuple((int(u), int(v)) for u, v in edges)
    )


def heal(t1: float, edges: Any = ()) -> ScheduledFault:
    """Schedule a heal at ``t1``; with no ``edges``, heal every cut edge."""
    return ScheduledFault(
        time=t1, kind="heal", edges=tuple((int(u), int(v)) for u, v in edges)
    )


@dataclass(frozen=True)
class FaultPlan:
    """Per-message fault probabilities plus scheduled fault events.

    Attributes
    ----------
    drop_prob:
        Probability a message is dropped.
    duplicate_prob:
        Probability a message is delivered twice.
    reorder_prob:
        Probability a message bypasses the FIFO ordering clamp.
    seed:
        RNG seed for the fault stream (independent of latency draws).
    events:
        Deterministic :class:`ScheduledFault` timeline (crashes,
        recoveries, partitions, heals), applied by the wire at the stated
        virtual times.
    """

    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    seed: int = 0
    events: Tuple[ScheduledFault, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "duplicate_prob", "reorder_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.drop_prob + self.duplicate_prob + self.reorder_prob > 1.0:
            raise ValueError("fault probabilities must sum to at most 1")
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    @property
    def is_faultless(self) -> bool:
        return (
            self.drop_prob == self.duplicate_prob == self.reorder_prob == 0.0
            and not self.events
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; embed this in reports so a failing chaos run is
        reproducible from the report line alone."""
        d: Dict[str, Any] = {
            "drop_prob": self.drop_prob,
            "duplicate_prob": self.duplicate_prob,
            "reorder_prob": self.reorder_prob,
            "seed": self.seed,
        }
        if self.events:
            d["events"] = [e.to_dict() for e in self.events]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultPlan":
        return cls(
            drop_prob=float(d.get("drop_prob", 0.0)),
            duplicate_prob=float(d.get("duplicate_prob", 0.0)),
            reorder_prob=float(d.get("reorder_prob", 0.0)),
            seed=int(d.get("seed", 0)),
            events=tuple(
                ScheduledFault.from_dict(e) for e in d.get("events", ())
            ),
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault."""

    time: float
    kind: str  # "drop" | "duplicate" | "reorder" | "blackhole"
    src: int
    dst: int
    message_kind: str


class FaultLog:
    """Record of every injected fault."""

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def record(self, time: float, kind: str, src: int, dst: int, message_kind: str) -> None:
        self.events.append(FaultEvent(time, kind, src, dst, message_kind))

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)


#: Fault-listener callback: invoked after the wire applies a scheduled fault.
FaultListener = Callable[[ScheduledFault], None]


class FaultyNetwork:
    """The latency-ful transport, with injected and scheduled faults.

    Every send is counted in ``stats`` and traced as ``send``; every
    delivery is traced as ``recv``.  Duplicates count as extra deliveries,
    and drops still count as sends — the sender paid for them.  ``plan``
    defaults to a faultless :class:`FaultPlan`: every message is then
    delivered once, in per-edge FIFO order.

    Scheduled faults from ``plan.events`` are applied at their virtual
    times: crashed nodes and partitioned edges black-hole traffic at both
    send time and delivery time (a message already in flight toward a node
    that crashes dies on the wire).  Each black-holed message emits a
    ``delivery_failed`` trace event — a *declared* loss the offline causal
    checker discounts.
    """

    def __init__(
        self,
        tree: Tree,
        sim: Simulator,
        receiver: Receiver,
        plan: Optional[FaultPlan] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        stats: Optional[MessageStats] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.tree = tree
        self.sim = sim
        self._receiver = receiver
        self.plan = plan if plan is not None else FaultPlan()
        self.stats = stats if stats is not None else MessageStats()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.faults = FaultLog()
        self._latency = latency if latency is not None else constant_latency(1.0)
        self._master_rng = random.Random(seed)
        self._lat_rng: Dict[Tuple[int, int], random.Random] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        for edge in tree.directed_edges():
            self._lat_rng[edge] = random.Random(self._master_rng.getrandbits(64))
            self._last_delivery[edge] = 0.0
        self._fault_rng = random.Random(self.plan.seed)
        self._in_flight = 0
        self.crashed: Set[int] = set()
        self._cut: Set[Tuple[int, int]] = set()  # directed black-holed edges
        self._fault_listeners: List[FaultListener] = []
        for ev in self.plan.events:
            sim.schedule_at(ev.time, partial(self._apply_fault, ev))

    # ------------------------------------------------------ scheduled faults
    def add_fault_listener(self, fn: FaultListener) -> FaultListener:
        """Register a callback fired after each scheduled fault is applied."""
        self._fault_listeners.append(fn)
        return fn

    def _both_ways(self, edges: Any) -> Set[Tuple[int, int]]:
        out: Set[Tuple[int, int]] = set()
        for u, v in edges:
            out.add((u, v))
            out.add((v, u))
        return out

    def _apply_fault(self, ev: ScheduledFault) -> None:
        now = self.sim.now
        if ev.kind == "crash":
            self.crashed.add(ev.node)  # type: ignore[arg-type]
            self.trace.emit(now, "node_crash", ev.node)  # type: ignore[arg-type]
        elif ev.kind == "recover":
            self.crashed.discard(ev.node)  # type: ignore[arg-type]
            self.trace.emit(now, "node_recover", ev.node)  # type: ignore[arg-type]
        elif ev.kind == "partition":
            self._cut |= self._both_ways(ev.edges)
            self.trace.emit(now, "partition", -1, edges=[list(e) for e in ev.edges])
        elif ev.kind == "heal":
            if ev.edges:
                self._cut -= self._both_ways(ev.edges)
                healed = [list(e) for e in ev.edges]
            else:
                healed = sorted([u, v] for (u, v) in self._cut if u < v)
                self._cut.clear()
            self.trace.emit(now, "heal", -1, edges=healed)
        for fn in self._fault_listeners:
            fn(ev)

    def crash_node(self, node: int) -> None:
        """Direct-API crash (dynamic engines): black-hole the node's
        traffic.  Trace emission is the caller's job on this path —
        scheduled faults trace through :meth:`_apply_fault` instead."""
        self.crashed.add(node)

    def recover_node(self, node: int) -> None:
        """Direct-API recover: the node's traffic flows again."""
        self.crashed.discard(node)

    def _blackholed(self, src: int, dst: int) -> bool:
        return (
            src in self.crashed
            or dst in self.crashed
            or (src, dst) in self._cut
        )

    def _declare_loss(self, src: int, dst: int, kind: str) -> None:
        self.faults.record(self.sim.now, "blackhole", src, dst, kind)
        self.trace.emit(
            self.sim.now, "fault", src, dst=dst, msg=kind, fault="blackhole"
        )
        self.trace.emit(
            self.sim.now, "delivery_failed", src, dst=dst, msg=kind, seq=-1, attempts=0
        )

    # --------------------------------------------------------------- sending
    def _classify(self) -> str:
        x = self._fault_rng.random()
        if x < self.plan.drop_prob:
            return "drop"
        x -= self.plan.drop_prob
        if x < self.plan.duplicate_prob:
            return "duplicate"
        x -= self.plan.duplicate_prob
        if x < self.plan.reorder_prob:
            return "reorder"
        return "ok"

    def send(self, src: int, dst: int, message: Any) -> None:
        edge = (src, dst)
        if edge not in self._lat_rng:
            raise ValueError(f"({src}, {dst}) is not a tree edge; cannot send")
        kind = getattr(message, "kind", type(message).__name__.lower())
        self.stats.record(src, dst, kind)
        self.trace.emit(self.sim.now, "send", src, dst=dst, msg=kind)
        if self._blackholed(src, dst):
            self._declare_loss(src, dst, kind)
            return
        fate = self._classify()
        if fate != "ok":
            self.faults.record(self.sim.now, fate, src, dst, kind)
            self.trace.emit(self.sim.now, "fault", src, dst=dst, msg=kind, fault=fate)
        if fate == "drop":
            return
        copies = 2 if fate == "duplicate" else 1
        for copy in range(copies):
            if copy == 1:
                # The duplicated copy is an extra delivery the receiver pays
                # for (see class docstring) — count it like any other send.
                self.stats.record(src, dst, kind)
            delay = self._latency(src, dst, self._lat_rng[edge])
            if delay < 0:
                raise ValueError(f"latency model returned negative delay {delay}")
            t = self.sim.now + delay
            if fate != "reorder":
                t = max(t, self._last_delivery[edge])
                self._last_delivery[edge] = t
            self._in_flight += 1
            self.sim.schedule_at(t, partial(self._deliver, message, src, dst, kind))

    def _deliver(self, message: Any, src: int, dst: int, kind: str) -> None:
        self._in_flight -= 1
        if self._blackholed(src, dst):
            # The fault landed while this message was in flight: it dies on
            # the wire, as a declared loss.
            self._declare_loss(src, dst, kind)
            return
        self.trace.emit(self.sim.now, "recv", dst, src=src, msg=kind)
        self._receiver(src, dst, message)

    def in_flight(self) -> int:
        return self._in_flight

    def is_quiescent(self) -> bool:
        return self._in_flight == 0

    def set_topology(self, tree: Tree) -> None:
        """Swap the tree under the transport (dynamic attach/detach/rename).

        New directed edges get latency RNG streams derived from the
        continuing master stream (existing edges keep theirs); per-edge
        state for removed edges is dropped.  Must be called at quiescence.
        """
        if not self.is_quiescent():
            raise RuntimeError("cannot change topology with messages in flight")
        self.tree = tree
        wanted = set(tree.directed_edges())
        for edge in [e for e in self._lat_rng if e not in wanted]:
            del self._lat_rng[edge]
            del self._last_delivery[edge]
        for edge in tree.directed_edges():
            if edge not in self._lat_rng:
                self._lat_rng[edge] = random.Random(self._master_rng.getrandbits(64))
                self._last_delivery[edge] = 0.0
        live = set(tree.nodes())
        self.crashed &= live
        self._cut = {e for e in self._cut if e in wanted}

    def rename_node(self, old: int, new: int) -> None:
        """Re-key crash/partition state after a dynamic-tree id rename."""
        if old in self.crashed:
            self.crashed.discard(old)
            self.crashed.add(new)
        remap = lambda n: new if n == old else n  # noqa: E731
        self._cut = {(remap(u), remap(v)) for (u, v) in self._cut}
