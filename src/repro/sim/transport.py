"""The composable transport stack and its single assembly point.

Every execution model in the repo moves messages through one of four
transports, which form a layered stack:

* :class:`~repro.sim.network.SynchronousNetwork` — zero-latency global
  FIFO queue (the sequential model of Section 2);
* :class:`~repro.sim.network.Network` — per-directed-edge FIFO channels
  with a latency model under a virtual clock (Section 5);
* :class:`~repro.sim.faults.FaultyNetwork` — the latency-ful wire plus
  injected drop/duplicate/reorder faults;
* :class:`~repro.sim.reliability.ReliableNetwork` — ACK/retransmit
  recovery wrapped around the faulty wire, restoring reliable FIFO.

Historically each entry point (the engines, ``faulty_concurrent_system``,
the CLI) hand-assembled its own stack, which is how the core↔sim import
cycle crept in.  :func:`build_transport` is now the single factory: a
:class:`TransportConfig` names the stack declaratively and any engine can
run over any stack.

>>> cfg = TransportConfig()                          # synchronous FIFO
>>> cfg = TransportConfig.simulated()                # latency-ful channels
>>> cfg = TransportConfig.simulated(plan=FaultPlan(drop_prob=0.1))
>>> cfg = TransportConfig.simulated(plan=plan, reliability=ReliabilityConfig())

All transports share one interface: ``send(src, dst, message)``,
``is_quiescent()``, ``sender(src, dst)`` (a precomputed per-edge send
callable), ``set_topology(tree)`` (dynamic attach/detach/rename at
quiescence), and ``stats`` / ``trace`` attributes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Union

from repro.sim.channel import LatencyModel
from repro.sim.faults import FaultPlan, FaultyNetwork
from repro.sim.network import Network, Receiver, SynchronousNetwork
from repro.sim.reliability import ReliabilityConfig, ReliableNetwork
from repro.sim.scheduler import Simulator
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree

#: Anything :func:`build_transport` can return.  External kinds (see
#: :func:`register_transport_kind`) may return any object honoring the
#: shared transport interface.
Transport = Union[SynchronousNetwork, Network, FaultyNetwork, ReliableNetwork, Any]

#: Registry of externally provided transport stacks, keyed by
#: :attr:`TransportConfig.kind`.  A factory has the same signature as
#: :func:`build_transport` minus ``config`` being first.  Plugins register
#: themselves on import; :data:`_KIND_MODULES` lets :func:`build_transport`
#: lazily import the providing module by dotted name the first time a kind
#: is requested, so the sim layer never *statically* imports upper layers
#: (the PL301 inversion is preserved — this is a plugin seam, not a
#: dependency).
_EXTERNAL_KINDS: Dict[str, Callable[..., Any]] = {}
_KIND_MODULES: Dict[str, str] = {"asyncio": "repro.net"}


def register_transport_kind(kind: str, factory: Callable[..., Any]) -> None:
    """Register an external transport stack under ``kind``.

    ``factory(config, tree, receiver, *, sim, seed, stats, trace, metrics)``
    must return an object implementing the shared transport
    interface (``send`` / ``sender`` / ``is_quiescent`` / ``set_topology`` /
    ``stats`` / ``trace``).  Called by plugin packages at import time —
    :mod:`repro.net` registers ``"asyncio"``.
    """
    _EXTERNAL_KINDS[kind] = factory


@dataclass(frozen=True)
class TransportConfig:
    """Declarative description of a transport stack.

    Attributes
    ----------
    synchronous:
        ``True`` selects the zero-latency global-FIFO transport of the
        sequential model; no simulator is involved and the latency/fault/
        reliability layers are unavailable (they need virtual time).
    latency:
        Latency model for the simulated wire (default: constant 1.0).
    plan:
        Fault-injection plan.  Without ``reliability`` the resulting
        transport is a bare lossy wire (combines can hang — drive it with
        ``run_with_faults``); with ``reliability`` the losses are healed.
    reliability:
        Reliable-delivery configuration wrapping the wire in
        :class:`~repro.sim.reliability.ReliableNetwork`.  Implies a lossy
        wire even when ``plan`` is omitted (a faultless plan is used).
    seed:
        Seed for the transport's latency RNG streams.  ``None`` inherits
        the engine's seed (the engines preserve the historical convention:
        plain transports use ``seed``, fault-injected ones ``seed + 1``).
    kind:
        ``"builtin"`` selects one of the four in-repo stacks above;
        any other value names an externally registered stack (see
        :func:`register_transport_kind`) — e.g. ``"asyncio"`` for the
        live socket transport of :mod:`repro.net`.  External kinds run on
        their own clock domain and need no :class:`Simulator`.
    options:
        Kind-specific configuration object handed verbatim to the external
        factory.  Unused by builtin stacks.
    """

    synchronous: bool = True
    latency: Optional[LatencyModel] = None
    plan: Optional[FaultPlan] = None
    reliability: Optional[ReliabilityConfig] = None
    seed: Optional[int] = None
    kind: str = "builtin"
    options: Any = None

    def __post_init__(self) -> None:
        if self.synchronous and (
            self.latency is not None
            or self.plan is not None
            or self.reliability is not None
        ):
            raise ValueError(
                "the synchronous transport has no virtual clock; latency, "
                "fault and reliability layers need TransportConfig.simulated()"
            )
        if self.kind != "builtin" and (
            self.latency is not None
            or self.plan is not None
            or self.reliability is not None
        ):
            raise ValueError(
                "external transport kinds bring their own wire; the "
                "latency/fault/reliability layers are builtin-only"
            )

    @classmethod
    def external(cls, kind: str, options: Any = None) -> "TransportConfig":
        """An externally registered stack (e.g. ``"asyncio"``), running on
        its own clock domain — no :class:`Simulator` involved."""
        if kind == "builtin":
            raise ValueError("'builtin' is not an external kind")
        return cls(synchronous=False, kind=kind, options=options)

    @classmethod
    def simulated(
        cls,
        latency: Optional[LatencyModel] = None,
        plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
        seed: Optional[int] = None,
    ) -> "TransportConfig":
        """A simulated (virtual-clock) stack: ``Network`` by default,
        ``FaultyNetwork`` when ``plan`` is set, ``ReliableNetwork`` on top
        when ``reliability`` is set."""
        return cls(
            synchronous=False,
            latency=latency,
            plan=plan,
            reliability=reliability,
            seed=seed,
        )

    @property
    def needs_sim(self) -> bool:
        """Whether the stack runs under a :class:`Simulator` clock."""
        return not self.synchronous and self.kind == "builtin"


def build_transport(
    config: TransportConfig,
    tree: Tree,
    receiver: Receiver,
    *,
    sim: Optional[Simulator] = None,
    seed: int = 0,
    stats: Optional[MessageStats] = None,
    trace: Optional[TraceLog] = None,
    metrics: Any = None,
) -> Transport:
    """Assemble the transport stack described by ``config``.

    Parameters
    ----------
    config:
        The declarative stack description.
    tree:
        Topology the transport validates sends against.
    receiver:
        ``(src, dst, message) -> None`` callback for delivered messages.
    sim:
        Virtual clock; required iff ``config.needs_sim``.
    seed:
        Fallback RNG seed when ``config.seed`` is ``None``.
    stats / trace / metrics:
        Shared accounting objects threaded through every layer.
    """
    transport_seed = config.seed if config.seed is not None else seed
    if config.kind != "builtin":
        factory = _EXTERNAL_KINDS.get(config.kind)
        if factory is None and config.kind in _KIND_MODULES:
            importlib.import_module(_KIND_MODULES[config.kind])
            factory = _EXTERNAL_KINDS.get(config.kind)
        if factory is None:
            raise ValueError(
                f"unknown transport kind {config.kind!r}; registered: "
                f"{sorted(_EXTERNAL_KINDS) or '(none)'}"
            )
        return factory(
            config, tree, receiver,
            sim=sim, seed=transport_seed, stats=stats, trace=trace,
            metrics=metrics,
        )
    if config.synchronous:
        return SynchronousNetwork(tree, receiver, stats=stats, trace=trace)
    if sim is None:
        raise ValueError("a simulated transport stack needs a Simulator")
    if config.reliability is not None:
        return ReliableNetwork(
            tree,
            sim,
            receiver=receiver,
            config=config.reliability,
            plan=config.plan,
            latency=config.latency,
            seed=transport_seed,
            stats=stats,
            trace=trace,
            metrics=metrics,
        )
    if config.plan is not None:
        return FaultyNetwork(
            tree,
            sim,
            receiver=receiver,
            plan=config.plan,
            latency=config.latency,
            seed=transport_seed,
            stats=stats,
            trace=trace,
        )
    return Network(
        tree,
        sim,
        receiver=receiver,
        latency=config.latency,
        seed=transport_seed,
        stats=stats,
        trace=trace,
    )


__all__ = [
    "Transport",
    "TransportConfig",
    "build_transport",
    "register_transport_kind",
]
