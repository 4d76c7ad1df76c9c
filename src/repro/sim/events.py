"""Event primitives for the discrete-event simulator.

An :class:`Event` is a scheduled callback; the :class:`EventQueue` is a
binary-heap priority queue ordered by ``(time, sequence)``.  The sequence
number makes the order of same-time events deterministic (insertion order),
which keeps every simulation reproducible for a given seed.  The heap holds
``(time, seq, event)`` tuples, so ordering is a built-in tuple comparison
that never reaches the event (``seq`` is unique).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


@dataclass
class Event:
    """A scheduled callback, fired in ``(time, seq)`` order.

    Attributes
    ----------
    time:
        Virtual time at which the event fires.
    seq:
        Tie-breaking sequence number (monotone per queue).
    action:
        Zero-argument callable executed when the event fires.
    cancelled:
        Cancelled events are skipped when popped.
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark this event so the queue skips it."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    def __bool__(self) -> bool:
        return len(self) > 0

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at ``time``; returns the (cancellable) event."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = next(self._counter)
        ev = Event(time=time, seq=seq, action=action)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None."""
        while self._heap:
            ev = heapq.heappop(self._heap)[2]
            if not ev.cancelled:
                return ev
        return None

    def peek_time(self) -> Optional[float]:
        """The firing time of the next non-cancelled event, or None."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
