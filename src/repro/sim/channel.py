"""Latency models for the simulated wire.

Section 2 assumes *reliable FIFO communication channels between neighboring
nodes*; Section 5 lets messages take time.  A :data:`LatencyModel` draws
one message's delay on a directed edge.  The wire
(:class:`~repro.sim.faults.FaultyNetwork`) gives each directed edge its own
random stream and keeps FIFO order by clamping each delivery time to be no
earlier than the previous one on the same edge (the standard trick for
FIFO links over i.i.d. delays).
"""

from __future__ import annotations

import random
from typing import Callable

#: A latency model maps (src, dst, rng) -> a non-negative delay sample.
LatencyModel = Callable[[int, int, random.Random], float]


def constant_latency(delay: float = 1.0) -> LatencyModel:
    """Every message takes exactly ``delay`` time units."""
    if delay < 0:
        raise ValueError(f"delay must be non-negative, got {delay}")
    return lambda _src, _dst, _rng: delay


def uniform_latency(lo: float, hi: float) -> LatencyModel:
    """Latency sampled uniformly from ``[lo, hi]`` per message."""
    if not (0 <= lo <= hi):
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    return lambda _src, _dst, rng: rng.uniform(lo, hi)


def exponential_latency(mean: float) -> LatencyModel:
    """Latency sampled from an exponential with the given mean."""
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    return lambda _src, _dst, rng: rng.expovariate(1.0 / mean)
