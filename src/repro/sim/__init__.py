"""Discrete-event simulation substrate.

The paper's setting is a distributed network with reliable FIFO channels; the
cost metric is the total number of messages, so the substrate's job is exact
message accounting plus two execution models:

* **Sequential executions** (Section 2's quiescent-state model): each request
  runs to quiescence before the next is initiated.  The sequential engine in
  :mod:`repro.core.engine` drives nodes over the zero-latency global FIFO
  queue of :class:`~repro.sim.network.SynchronousNetwork`.
* **Concurrent executions** (Section 5): requests overlap in time.  The
  :class:`~repro.sim.scheduler.Simulator` provides a virtual clock and an
  event heap; the wire, :class:`~repro.sim.faults.FaultyNetwork`, delivers
  messages with (optionally random) latency while enforcing FIFO order per
  directed edge, and injects the faults of its plan (none by default).
  :class:`~repro.sim.reliability.ReliableNetwork` heals a lossy wire, and
  :func:`~repro.sim.transport.build_transport` assembles the stack.

:class:`~repro.sim.stats.MessageStats` counts messages per directed edge and
per message type — the exact quantities in the paper's cost decomposition
(Lemma 3.9) — and :class:`~repro.sim.trace.TraceLog` records structured
events for debugging and for the consistency checkers.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.scheduler import Simulator, Timer
from repro.sim.channel import LatencyModel, constant_latency, uniform_latency
from repro.sim.network import SynchronousNetwork
from repro.sim.faults import FaultLog, FaultPlan, FaultyNetwork
from repro.sim.reliability import (
    DeliveryFailure,
    ReliabilityConfig,
    ReliabilitySummary,
    ReliableNetwork,
)
from repro.sim.transport import Transport, TransportConfig, build_transport
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceEvent, TraceLog

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Timer",
    "LatencyModel",
    "constant_latency",
    "uniform_latency",
    "SynchronousNetwork",
    "FaultLog",
    "FaultPlan",
    "FaultyNetwork",
    "DeliveryFailure",
    "ReliabilityConfig",
    "ReliabilitySummary",
    "ReliableNetwork",
    "Transport",
    "TransportConfig",
    "build_transport",
    "MessageStats",
    "TraceEvent",
    "TraceLog",
]
