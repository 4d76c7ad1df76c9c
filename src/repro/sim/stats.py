"""Message accounting.

The paper's cost metric is *the total number of messages exchanged among
nodes* (Section 2), and its analysis decomposes that count per ordered edge
and per message type (Lemma 3.9 / Figure 2).  :class:`MessageStats` counts at
exactly that granularity: ``counts[(src, dst)][kind]``.

Two ledgers, one object
-----------------------
With the reliable-delivery layer (:mod:`repro.sim.reliability`) in play, a
run exchanges two classes of traffic:

* **goodput** — the protocol's own messages (probe/response/update/release),
  the quantity every cost lemma and competitive ratio is stated in.  Recorded
  with :meth:`MessageStats.record`; :attr:`MessageStats.total` counts only
  these, so numbers stay comparable with fault-free runs.
* **recovery overhead** — retransmissions, ACKs and suppressed duplicates
  spent restoring the reliable-FIFO contract over a lossy channel.  Recorded
  with :meth:`MessageStats.record_overhead` into a separate ledger exposed
  through :attr:`MessageStats.overhead_total` / :meth:`overhead_by_kind`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping, Tuple

Edge = Tuple[int, int]


class MessageStats:
    """Per-directed-edge, per-kind message counters.

    ``kind`` is a free-form string; the lease mechanism uses ``"probe"``,
    ``"response"``, ``"update"`` and ``"release"``.
    """

    def __init__(self) -> None:
        self._counts: Dict[Edge, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._total = 0
        self._overhead: Dict[Edge, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._overhead_total = 0

    def record(self, src: int, dst: int, kind: str) -> None:
        """Count one message of ``kind`` on directed edge ``(src, dst)``."""
        self._counts[(src, dst)][kind] += 1
        self._total += 1

    def record_overhead(self, src: int, dst: int, kind: str) -> None:
        """Count one *recovery-overhead* event on ``(src, dst)``.

        Overhead events (``"ack"``, ``"retransmit"``, ``"duplicate"`` for
        receiver-side suppressed duplicates) live in a separate ledger so
        :attr:`total` — the paper's cost metric — stays comparable with
        fault-free runs.
        """
        self._overhead[(src, dst)][kind] += 1
        self._overhead_total += 1

    @property
    def total(self) -> int:
        """Total protocol messages recorded — the paper's cost ``C_A(σ)``."""
        return self._total

    @property
    def goodput(self) -> int:
        """Alias of :attr:`total`: protocol messages only, no recovery traffic."""
        return self._total

    @property
    def overhead_total(self) -> int:
        """Total recovery-overhead events (retransmits, ACKs, dups suppressed)."""
        return self._overhead_total

    def overhead_by_kind(self) -> Dict[str, int]:
        """Overhead totals aggregated by event kind."""
        out: Dict[str, int] = defaultdict(int)
        for kinds in self._overhead.values():
            for kind, c in kinds.items():
                out[kind] += c
        return dict(out)

    def overhead_count(self, src: int, dst: int, kind: str) -> int:
        """Overhead events of ``kind`` on directed edge ``(src, dst)``."""
        return self._overhead.get((src, dst), {}).get(kind, 0)

    def edge_total(self, src: int, dst: int) -> int:
        """Messages sent on directed edge ``(src, dst)``."""
        return sum(self._counts.get((src, dst), {}).values())

    def undirected_edge_total(self, u: int, v: int) -> int:
        """Messages exchanged between ``u`` and ``v``, both directions."""
        return self.edge_total(u, v) + self.edge_total(v, u)

    def count(self, src: int, dst: int, kind: str) -> int:
        """Messages of ``kind`` on directed edge ``(src, dst)``."""
        return self._counts.get((src, dst), {}).get(kind, 0)

    def by_kind(self) -> Dict[str, int]:
        """Totals aggregated by message kind."""
        out: Dict[str, int] = defaultdict(int)
        for kinds in self._counts.values():
            for kind, c in kinds.items():
                out[kind] += c
        return dict(out)

    def directional_cost(self, u: int, v: int) -> int:
        """The paper's ``C_A(σ, u, v)`` for this run: probes and releases
        from ``v`` to ``u`` plus responses and updates from ``u`` to ``v``.

        (Definition preceding Lemma 3.9.)
        """
        return (
            self.count(v, u, "probe")
            + self.count(u, v, "response")
            + self.count(u, v, "update")
            + self.count(v, u, "release")
        )

    def edges(self) -> Iterable[Edge]:
        """Directed edges with at least one recorded message."""
        return self._counts.keys()

    def snapshot(self) -> Mapping[Edge, Mapping[str, int]]:
        """A deep-copied snapshot of the counters."""
        return {e: dict(kinds) for e, kinds in self._counts.items()}

    def diff_total(self, earlier: "MessageStats") -> int:
        """Total messages recorded here beyond ``earlier``'s total."""
        return self._total - earlier._total

    def reset(self) -> None:
        """Zero all counters (both ledgers)."""
        self._counts.clear()
        self._total = 0
        self._overhead.clear()
        self._overhead_total = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f", overhead={self._overhead_total}" if self._overhead_total else ""
        return f"MessageStats(total={self._total}, by_kind={self.by_kind()!r}{extra})"
