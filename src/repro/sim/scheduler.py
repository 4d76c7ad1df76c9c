"""The discrete-event :class:`Simulator` core.

A thin, deterministic event loop: schedule callbacks at virtual times, run
until the queue drains (or a time/event budget is hit).  Nodes and channels
are plain Python objects that capture the simulator and call
:meth:`Simulator.schedule`; there is no process abstraction, which keeps
the hot path simple.  There is one event loop, :meth:`Simulator.run`;
wall-clock profiling times it, and the event actions under it, by
attaching to those methods from outside
(:meth:`repro.obs.perf.PerfProfiler.attach`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.events import Event, EventQueue


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds its event budget (likely a livelock bug)."""


class Simulator:
    """A deterministic discrete-event simulator with a virtual clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute virtual time ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        return self._queue.push(time, action)

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> None:
        """Run until the queue drains, or until virtual time ``until``.

        Raises :class:`SimulationLimitError` after ``max_events`` events —
        a guard against livelocked protocols rather than a sampling knob.
        """
        budget = max_events
        while True:
            nxt = self._queue.peek_time()
            if nxt is None:
                return
            if until is not None and nxt > until:
                self._now = until
                return
            ev = self._queue.pop()
            assert ev is not None
            self._now = ev.time
            ev.action()
            self._events_processed += 1
            budget -= 1
            if budget <= 0:
                raise SimulationLimitError(
                    f"exceeded {max_events} events at t={self._now}; "
                    "protocol livelock or budget too small"
                )

    def step(self) -> bool:
        """Execute one event; return False when the queue is empty."""
        ev = self._queue.pop()
        if ev is None:
            return False
        self._now = ev.time
        ev.action()
        self._events_processed += 1
        return True

    def is_quiescent(self) -> bool:
        """True when no events are pending — the paper's quiescent state
        (no pending request, no message in transit)."""
        return len(self._queue) == 0


class Timer:
    """A cancellable, restartable one-shot timer bound to a :class:`Simulator`.

    Wraps the raw :class:`~repro.sim.events.Event` cancellation machinery in
    the shape protocol code wants: ``start`` arms (or re-arms) the timer,
    ``cancel`` disarms it, and a timer that has fired or been cancelled is
    simply inactive.  Restarting an active timer cancels the pending firing
    first, so at most one firing is ever outstanding.  Used by the
    reliable-delivery layer (:mod:`repro.sim.reliability`) for per-segment
    retransmission timeouts.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> t = Timer(sim)
    >>> t.start(5.0, lambda: fired.append("late"))
    >>> t.start(1.0, lambda: fired.append("early"))  # re-arm replaces
    >>> sim.run()
    >>> fired
    ['early']
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._event: Optional["Event"] = None
        self._action: Optional[Callable[[], None]] = None

    @property
    def active(self) -> bool:
        """True while a firing is scheduled and not yet executed/cancelled."""
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self) -> Optional[float]:
        """Virtual time of the pending firing, or ``None`` when inactive."""
        return self._event.time if self.active else None

    def start(self, delay: float, action: Callable[[], None]) -> None:
        """Arm the timer ``delay`` from now, replacing any pending firing.

        The pending action is held in an attribute and dispatched through
        the bound :meth:`_fire` method (not a closure), so a deep-copied
        simulator clones its timers instead of aliasing the original's.
        """
        self.cancel()
        self._action = action
        self._event = self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        # Only the currently armed event can reach here: start() cancels the
        # previous event before re-arming, and cancelled events never run.
        action = self._action
        self._event = None
        self._action = None
        if action is not None:
            action()

    def cancel(self) -> None:
        """Disarm the timer; a no-op when inactive."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._action = None


class SimClock:
    """The virtual-time clock domain: ``now`` plus a :class:`Timer` factory.

    A *clock domain* is the pair of primitives time-dependent subsystems
    need — a monotone ``now`` and cancellable one-shot timers — abstracted
    away from where time comes from.  :class:`~repro.sim.reliability.ReliableNetwork`
    retransmission timeouts consume this shape; under simulation it is
    backed by a :class:`Simulator` (this class).  Passing no clock anywhere
    preserves the historical behavior exactly: ``SimClock(sim)`` is pure
    delegation.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    @property
    def now(self) -> float:
        """Current time in this domain (virtual time of the simulator)."""
        return self.sim.now

    def timer(self) -> Timer:
        """A fresh cancellable one-shot :class:`Timer` in this domain."""
        return Timer(self.sim)
