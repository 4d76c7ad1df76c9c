"""Wall-clock phase profiling, attached to a run from outside.

The virtual-time telemetry (:mod:`repro.obs.metrics`,
:mod:`repro.obs.spans`) answers *protocol* questions — how many messages,
which edges, what latency in simulated time.  It says nothing about where
the **wall clock** goes, which is the question the ROADMAP's flat-engine
work needs answered (the throughput collapse from ~26k req/s at n=7 to
~1k req/s at n=255 is a Python-execution problem, not a protocol one).

:class:`PerfProfiler` is an explicit phase profiler.  Per phase it
accumulates call counts, inclusive seconds and *self* seconds (inclusive
minus time attributed to nested phases), and a collapsed-stack table
(``"a;b;c" -> self-seconds``) ready for any flamegraph renderer
(:func:`format_collapsed` renders it in the standard one-line-per-stack
format, :func:`parse_collapsed` reads it back).

Nothing in the engines, transports or the automaton holds a profiler.
:meth:`PerfProfiler.attach` replaces a class attribute with a wrapper that
pushes a named phase around the original, and :meth:`PerfProfiler.detach`
restores every original, so code that is not being profiled runs exactly
as shipped.  ``python -m repro perf record`` keeps the table of entry
points it attaches (:data:`repro.cli.PERF_ATTACH_POINTS`): this package may
not import the simulator layers (lint rule PL302).  ``LeaseNode`` is never
attached; per-message-kind attribution happens one frame up, at
``Router.route`` (phase ``mechanism.<kind>``).
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple, Union

__all__ = [
    "PerfProfiler",
    "format_collapsed",
    "parse_collapsed",
]

#: Scale used when rendering collapsed stacks: flamegraph tooling expects
#: integer sample counts, so self-seconds are written as microseconds.
_COLLAPSED_SCALE = 1_000_000

#: A phase: a fixed name, or a function of the timed call's arguments
#: (``self`` included) that returns the name.
Phase = Union[str, Callable[..., str]]


class PerfProfiler:
    """Explicit wall-clock phase profiler (push/pop named phases).

    Parameters
    ----------
    clock:
        Injectable time source (defaults to :func:`time.perf_counter`);
        tests substitute a deterministic counter.

    Notes
    -----
    Phases nest: ``self`` seconds exclude time spent in nested phases, so
    ``sum(self_seconds) == total wall time inside root phases`` and the
    collapsed-stack table is exact (no sampling error — this is a tracing
    profiler that *emits* the sampling-profiler interchange format).
    """

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: phase name -> number of completed push/pop pairs.
        self.phase_count: Dict[str, int] = {}
        #: phase name -> inclusive seconds (nested phases included).
        self.phase_total: Dict[str, float] = {}
        #: phase name -> self seconds (nested phases excluded).
        self.phase_self: Dict[str, float] = {}
        #: named event counters (``count``).
        self.counters: Dict[str, int] = {}
        #: ``"root;child;leaf" -> self seconds`` (collapsed-stack table).
        self.stacks: Dict[str, float] = {}
        self._names: List[str] = []
        self._starts: List[float] = []
        self._child: List[float] = []
        #: (owner, attribute, original) per :meth:`attach`, oldest first.
        self._attached: List[Tuple[type, str, Callable[..., Any]]] = []

    # ------------------------------------------------------------- recording
    def push(self, name: str) -> None:
        """Enter phase ``name`` (nested under the current phase, if any)."""
        self._names.append(name)
        self._starts.append(self._clock())
        self._child.append(0.0)

    def pop(self) -> float:
        """Exit the current phase; returns its inclusive duration."""
        end = self._clock()
        name = self._names.pop()
        elapsed = end - self._starts.pop()
        child = self._child.pop()
        self_time = elapsed - child
        if self_time < 0.0:  # clock granularity underflow
            self_time = 0.0
        self.phase_count[name] = self.phase_count.get(name, 0) + 1
        self.phase_total[name] = self.phase_total.get(name, 0.0) + elapsed
        self.phase_self[name] = self.phase_self.get(name, 0.0) + self_time
        if self._child:
            self._child[-1] += elapsed
        key = ";".join(self._names) + ";" + name if self._names else name
        self.stacks[key] = self.stacks.get(key, 0.0) + self_time
        return elapsed

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """``with profiler.phase("name"):`` convenience around push/pop."""
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def count(self, name: str, amount: int = 1) -> None:
        """Bump the named event counter by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def depth(self) -> int:
        """Current phase-stack depth (0 outside any phase)."""
        return len(self._names)

    # ------------------------------------------------------------- attaching
    def attach(self, owner: type, attr: str, phase: Phase) -> None:
        """Time every call of ``owner.attr`` as ``phase`` until :meth:`detach`.

        Replaces the class attribute with a wrapper that pushes the phase
        around the original.  ``phase`` is a name, or a function of the
        call's arguments (``self`` included) returning one.  Only a plain
        function the class defines itself can be attached: an inherited
        method would be patched on the wrong class, and a static or class
        method would lose its descriptor.

        Attach before building the objects to profile: a bound method taken
        at construction (a transport's receiver callback, say) keeps
        calling what the class held at that time.
        """
        original = vars(owner).get(attr)
        if not inspect.isfunction(original):
            raise AttributeError(
                f"{owner.__qualname__}.{attr} is not a function the class defines itself"
            )
        push, pop = self.push, self.pop

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            push(phase if isinstance(phase, str) else phase(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                pop()

        self._attached.append((owner, attr, original))
        setattr(owner, attr, timed)

    def detach(self) -> None:
        """Restore every attribute :meth:`attach` replaced, newest first."""
        while self._attached:
            owner, attr, original = self._attached.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- export
    def collapsed_lines(self) -> List[str]:
        """The collapsed-stack table as flamegraph-format lines
        (:func:`format_collapsed`)."""
        return format_collapsed(self.stacks)

    def write_collapsed(self, path: str) -> int:
        """Write :meth:`collapsed_lines` to ``path``; returns the line count."""
        lines = self.collapsed_lines()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic JSON-safe dump of everything recorded so far."""
        phases = {
            name: {
                "count": self.phase_count[name],
                "total_s": self.phase_total[name],
                "self_s": self.phase_self[name],
            }
            for name in sorted(self.phase_count)
        }
        return {
            "phases": phases,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "stacks": {k: self.stacks[k] for k in sorted(self.stacks)},
        }


def format_collapsed(stacks: Dict[str, float]) -> List[str]:
    """Render a ``stack -> seconds`` table as flamegraph collapsed-stack lines.

    One ``frame;frame;frame <microseconds>`` line per distinct stack,
    sorted for determinism; stacks that round to zero microseconds are
    dropped (a renderer would ignore them anyway).  Inverse of
    :func:`parse_collapsed` up to that rounding.
    """
    out = []
    for key in sorted(stacks):
        weight = int(round(stacks[key] * _COLLAPSED_SCALE))
        if weight > 0:
            out.append(f"{key} {weight}")
    return out


def parse_collapsed(lines: Iterable[str]) -> Dict[str, float]:
    """Parse flamegraph collapsed-stack lines back to ``stack -> seconds``.

    Inverse of :func:`format_collapsed` up to the integer microsecond
    rounding the format imposes.
    """
    out: Dict[str, float] = {}
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        key, _, weight = line.rpartition(" ")
        if not key:
            raise ValueError(f"malformed collapsed-stack line: {raw!r}")
        out[key] = out.get(key, 0.0) + int(weight) / _COLLAPSED_SCALE
    return out
