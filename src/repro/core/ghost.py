"""Ghost-log instrumentation for the causal-consistency analysis (Section 5).

Figure 6 augments the mechanism with *ghost actions*: every node keeps a
request log ``u.log`` (its own writes and gathers plus writes learned from
messages); ``update`` and ``response`` messages piggyback the sender's write
log ``wlog``; the receiver appends the unseen suffix (``log := log .
(wlog_w − log)``).  A *gather* request is the analysis-side twin of a
combine: instead of the aggregate value it records ``recentwrites(u.log, q)``
— for every node, the (node, index) of the most recent write known at the
moment the combine returned.

:class:`GhostLog` implements all of this.  It is pure instrumentation: the
mechanism never branches on ghost state, so enabling it cannot change
message behaviour (tests assert this).

The merge walks only the part of a snapshot it has not walked before.  A
node's ``wlog`` only grows, and it is durable: a crash never rolls it back,
a checkpoint never captures it, and the live deployment never enables
ghosts.  So every snapshot from sender ``w`` is a prefix of ``w``'s current
write log, and once a snapshot of length ``k`` from ``w`` has been merged,
the first ``k`` entries of any later snapshot from ``w`` are already in the
log.  :meth:`GhostLog.merge` keeps that ``k`` per sender (the *cursor*) and
walks ``snapshot[k:]``; a reordered or duplicated snapshot no longer than
the cursor adds nothing.  The cursor is a pure cache of what the literal
merge would find: it is not part of the node's protocol state, and a host
that rebuilt a node with an empty ghost log would have to drop its
neighbors' cursors for it (:meth:`GhostLog.forget_sender`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.workloads.requests import GATHER, WRITE, Request

#: recentwrites maps every node id to the index of its most recent write
#: in the log (or -1 when the log has no write at that node).
RecentWrites = Dict[int, int]


class GhostLog:
    """Per-node ghost state: ``log``, ``wlog`` and their derived views.

    Write requests are identified by ``(node, index)`` — unique because a
    node's completed-request counter is monotone — which makes the
    "append the unseen suffix" merge well-defined across snapshots.
    """

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.log: List[Request] = []
        self.wlog: List[Request] = []
        self._writes_seen: Set[Tuple[int, int]] = set()
        self._recent: Dict[int, int] = {}
        #: sender -> length of the longest snapshot merged from it.
        self._cursor: Dict[int, int] = {}

    # ------------------------------------------------------------ mutations
    def append_write(self, request: Request) -> None:
        """T2's ghost action: append this node's own write to the log."""
        if request.op != WRITE:
            raise ValueError(f"append_write needs a write, got {request.op}")
        key = (request.node, request.index)
        if key in self._writes_seen:
            raise ValueError(f"duplicate write identity {key}")
        self.log.append(request)
        self.wlog.append(request)
        self._writes_seen.add(key)
        self._recent[request.node] = request.index

    def append_gather(self, combine_request: Request) -> Request:
        """T1/T4's ghost action: record the gather twin of a returning combine.

        Returns the gather request (same node and index as the combine,
        ``retval = recentwrites(u.log, q)``).
        """
        gather = Request(
            node=combine_request.node,
            op=GATHER,
            retval=self.recentwrites(),
            index=combine_request.index,
            initiated_at=combine_request.initiated_at,
            completed_at=combine_request.completed_at,
        )
        self.log.append(gather)
        return gather

    def merge(self, sender: int, wlog_snapshot: Sequence[Request]) -> int:
        """T4/T5's ghost action: ``log := log . (wlog_w − log)`` for a
        snapshot of neighbor ``sender``'s write log.

        Appends, in snapshot order, every write not already present.
        Returns how many writes were appended.  Walks only the entries past
        ``sender``'s cursor, the length of the longest snapshot merged from
        it so far; the module docstring says why that is exact.
        """
        start = self._cursor.get(sender, 0)
        if len(wlog_snapshot) <= start:
            return 0
        self._cursor[sender] = len(wlog_snapshot)
        added = 0
        for q in wlog_snapshot[start:]:
            key = (q.node, q.index)
            if key not in self._writes_seen:
                self.log.append(q)
                self.wlog.append(q)
                self._writes_seen.add(key)
                self._recent[q.node] = q.index
                added += 1
        return added

    def rename_sender(self, old: int, new: int) -> None:
        """Neighbor ``old`` is now called ``new``: move its cursor."""
        if old in self._cursor:
            self._cursor[new] = self._cursor.pop(old)

    def forget_sender(self, sender: int) -> None:
        """Drop ``sender``'s cursor, so the next snapshot under that id is
        walked whole (it may come from a different node)."""
        self._cursor.pop(sender, None)

    # --------------------------------------------------------------- queries
    def wlog_snapshot(self) -> Tuple[Request, ...]:
        """The write log as an immutable snapshot (piggybacked on messages)."""
        return tuple(self.wlog)

    def recentwrites(self) -> RecentWrites:
        """``recentwrites(u.log, q)`` for a ``q`` appended right now:
        node -> index of its most recent write in the log, -1 if none."""
        return {v: self._recent.get(v, -1) for v in range(self.n_nodes)}

    def contains_write(self, node: int, index: int) -> bool:
        """Has the write identified by ``(node, index)`` been merged?"""
        return (node, index) in self._writes_seen

    def __len__(self) -> int:
        return len(self.log)


def extend_with_missing_writes(
    base: List[Request],
    other_wlogs: Iterable[Iterable[Request]],
) -> List[Request]:
    """Section 5.3's ``u.gwlog'`` construction: for each other node ``v``,
    append ``v.wlog − current`` to the end, in order.

    Produces a sequence containing every write in the system exactly once
    while preserving ``base``'s prefix.
    """
    seen: Set[Tuple[int, int]] = set()
    out: List[Request] = []
    for q in base:
        if q.op == WRITE:
            key = (q.node, q.index)
            if key in seen:
                continue
            seen.add(key)
        out.append(q)
    for wlog in other_wlogs:
        for q in wlog:
            if q.op != WRITE:
                raise ValueError("wlog must contain writes only")
            key = (q.node, q.index)
            if key not in seen:
                seen.add(key)
                out.append(q)
    return out
