"""The hybrid logical clock: the live deployment's clock domain.

The simulator gives every event one totally ordered virtual timestamp for
free; a multi-process deployment has N drifting wall clocks instead.  The
offline verification pipeline (merge per-process traces, sort, run
``verify causal`` and the lemma monitors) needs the merged order to be
*happens-before consistent*: if event ``a`` causally precedes event ``b``
(same process, or a message from ``a``'s process delivered before ``b``),
then ``a`` must sort before ``b``.

:class:`HybridClock` is the standard hybrid logical clock (Kulkarni et al.):
``tick()`` returns ``max(prev + delta, wall)`` and every received frame's
timestamp is folded in via ``observe(remote)``, so a delivery is always
stamped after its send even across processes with skewed wall clocks.
Within one process the clock is strictly monotone, so the per-process JSONL
stream sorts back into emission order.

``HybridClock.tick`` is the live domain's whole clock: a serve process's
nodes, transport and :class:`~repro.recovery.manager.RecoveryManager`
stamp events and measure lease TTLs with it, as they use virtual time in
the simulator.
"""

from __future__ import annotations

import time
from typing import Callable


class HybridClock:
    """A hybrid logical clock: monotone, wall-anchored, causality-aware.

    ``delta`` is the logical increment applied when the wall clock has not
    advanced past the previous reading (bursts, coarse clocks); it is small
    enough (1 µs) that stamps remain near wall time for humans.
    """

    __slots__ = ("_last", "_wall", "delta")

    def __init__(self, wall: Callable[[], float] = time.time, delta: float = 1e-6) -> None:
        self._wall = wall
        self._last = 0.0
        self.delta = delta

    def tick(self) -> float:
        """Advance and return the clock (strictly greater than all prior
        ticks and all observed remote stamps)."""
        self._last = max(self._last + self.delta, self._wall())
        return self._last

    def observe(self, remote: float) -> None:
        """Fold in a remote timestamp; the next tick exceeds it."""
        if remote > self._last:
            self._last = remote

    @property
    def last(self) -> float:
        """The most recent reading (without advancing)."""
        return self._last


__all__ = ["HybridClock"]
