"""The composable transport stack and its single assembly point.

Every execution model in the simulator moves messages through one of
three transports, which form a layered stack:

* :class:`~repro.sim.network.SynchronousNetwork` — zero-latency global
  FIFO queue (the sequential model of Section 2);
* :class:`~repro.sim.faults.FaultyNetwork` — the latency-ful wire:
  per-directed-edge FIFO delivery with a latency model under a virtual
  clock (Section 5), plus the drop/duplicate/reorder and scheduled faults
  of its :class:`~repro.sim.faults.FaultPlan` (none by default);
* :class:`~repro.sim.reliability.ReliableNetwork` — ACK/retransmit
  recovery wrapped around the faulty wire, restoring reliable FIFO.

Historically each entry point (the engines, ``faulty_concurrent_system``,
the CLI) hand-assembled its own stack, which is how the core↔sim import
cycle crept in.  :func:`build_transport` is now the single factory: a
:class:`TransportConfig` names the stack declaratively and any engine can
run over any stack.

>>> cfg = TransportConfig()                          # synchronous FIFO
>>> cfg = TransportConfig.simulated()                # latency-ful wire
>>> cfg = TransportConfig.simulated(plan=FaultPlan(drop_prob=0.1))
>>> cfg = TransportConfig.simulated(plan=plan, reliability=ReliabilityConfig())

All transports share one interface: ``send(src, dst, message)``,
``is_quiescent()``, ``set_topology(tree)`` (dynamic attach/detach/rename
at quiescence), and ``stats`` / ``trace`` attributes.

The live TCP transport of :mod:`repro.net` honors the same channel
contract but is not built here: a ``NodeServer`` constructs its
``AsyncioTransport`` itself, on its own clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.sim.channel import LatencyModel
from repro.sim.faults import FaultPlan, FaultyNetwork
from repro.sim.network import Receiver, SynchronousNetwork
from repro.sim.reliability import ReliabilityConfig, ReliableNetwork
from repro.sim.scheduler import Simulator
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree

#: Anything :func:`build_transport` can return.
Transport = Union[SynchronousNetwork, FaultyNetwork, ReliableNetwork]


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
        Fault-injection plan for the wire (default: no faults).  Without
        ``reliability`` a lossy plan leaves a bare lossy wire (combines can
        hang — drive it with ``run_with_faults``); with ``reliability`` the
        losses are healed.
    reliability:
        Reliable-delivery configuration wrapping the wire in
        :class:`~repro.sim.reliability.ReliableNetwork`.
    seed:
        Seed for the transport's latency RNG streams.  ``None`` inherits
        the engine's seed (the engines preserve the historical convention:
        plain transports use ``seed``, fault-injected ones ``seed + 1``).
    """

    synchronous: bool = True
    latency: Optional[LatencyModel] = None
    plan: Optional[FaultPlan] = None
    reliability: Optional[ReliabilityConfig] = None
    seed: Optional[int] = None

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

    @classmethod
    def simulated(
        cls,
        latency: Optional[LatencyModel] = None,
        plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
        seed: Optional[int] = None,
    ) -> "TransportConfig":
        """A simulated (virtual-clock) stack: the ``FaultyNetwork`` wire
        (faultless unless ``plan`` is set), with ``ReliableNetwork`` on top
        when ``reliability`` is set."""
        return cls(
            synchronous=False,
            latency=latency,
            plan=plan,
            reliability=reliability,
            seed=seed,
        )


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
        Virtual clock; required iff ``config`` is not synchronous.
    seed:
        Fallback RNG seed when ``config.seed`` is ``None``.
    stats / trace / metrics:
        Shared accounting objects threaded through every layer.
    """
    transport_seed = config.seed if config.seed is not None else seed
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


__all__ = [
    "Transport",
    "TransportConfig",
    "build_transport",
]
