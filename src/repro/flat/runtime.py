"""FlatRuntime — the array-indexed execution backend.

The reference backend pays for its flexibility in per-message Python
object churn: every probe allocates a ``Probe``, every delivery walks a
transport stack, every transition makes half a dozen method calls
through policy and telemetry indirection.  At n=1023 that overhead *is*
the runtime (see ``benchmarks/results/scalability.json``).

This backend stores the entire Figure-1 automaton in flat arrays over a
CSR adjacency layout and drains the wire in one inlined loop, the
kernel (:meth:`FlatRuntime._kernel`):

Slots
    Directed edge ``u <- v`` (node ``u``'s view of neighbor ``v``) is a
    *slot* ``s`` with ``owner[s] = u``, ``peer[s] = v``; node ``u`` owns
    the contiguous slot range ``off[u]:off[u+1]`` in the order of
    ``tree.neighbors(u)`` (sorted — the reference backend's iteration
    order, so wire schedules match message-for-message).  ``rev[s]`` is
    the opposite direction's slot.

Per-edge state
    ``taken``/``granted`` lease bits, cached ``aval`` subaggregates,
    ``uaw`` pending-update windows, and the flattened policy timers
    ``lt``/``cc`` with per-edge parameters ``pa``/``pb`` (see
    :mod:`repro.flat.policy`) — all indexed by slot.

Interned messages
    A queued probe is one ``int`` (``slot << 3``); a response, update or
    release is one small tuple ``(code, slot, ...)`` carrying the
    receiving slot.  No dataclass allocation, no dispatch table.

Batched delivery & accounting
    The kernel runs a single while-loop over the queue with every hot
    array in a local.  Message counts accumulate in per-(slot, kind)
    buffers flushed into :class:`~repro.sim.stats.MessageStats` form
    only when per-edge detail is actually read; ``stats.total`` is exact
    at every batch boundary, so spans, metrics and the cost meter see
    the numbers they always saw.

The kernel is the only implementation of the receive transitions here.
Configurations that need more than it provides — traces, ghost logs,
crashes, model-checker stepping — run on the reference backend:
:func:`~repro.core.backend.build_backend` refuses them for ``flat``.
The static effect analysis (:mod:`repro.verify.effects`) reads the
kernel's kind dispatch directly and checks it against the reaction spec
and the reference handlers (PL501/PL502/PL504).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.backend import BackendUnsupported, RuntimeTelemetry
from repro.core.policies import RWWPolicy
from repro.core.runtime import check_quiescent_invariants as _check_invariants
from repro.flat.policy import M_AB, M_NEVER, M_RWW, policy_spec
from repro.flat.views import FlatNode
from repro.obs.costmeter import CostMeter
from repro.obs.metrics import MetricsRegistry
from repro.ops.standard import SUM
from repro.sim.stats import MessageStats
from repro.sim.trace import TraceLog
from repro.workloads.requests import Request

__all__ = ["FlatRuntime"]

#: Wire codes: a tuple message's first element, and a slot counter's
#: offset in the pending-count array.  A probe interns to a bare
#: ``slot << 3`` int and carries no code.
K_PROBE = 0
K_RESPONSE = 1
K_UPDATE = 2
K_RELEASE = 3

KIND_NAMES = ("probe", "response", "update", "release")

#: Delivery-count ceiling, matching ``SynchronousNetwork.run_to_quiescence``.
MAX_DELIVERIES = 10_000_000


class _FlatStats(MessageStats):
    """MessageStats with lazily-flushed per-slot counters.

    Every send counts into ``_pending[slot * 4 + kind]``; the kernel adds
    its batch total to ``_total`` once at loop exit, so ``total`` is
    always exact.  Per-edge detail (``count``/``by_kind``/
    ``directional_cost``/...) is demanded rarely (reports, golden
    assertions), so the per-edge ledger is synced on read by scanning
    the pending array.
    """

    def __init__(self, owner: List[int], peer: List[int]) -> None:
        super().__init__()
        self._slot_owner = owner
        self._slot_peer = peer
        self._pending: List[int] = [0] * (len(owner) * 4)
        self._unsynced = False

    def sent(self, slot: int, kind: int) -> None:
        """Count one send made outside the kernel (request initiation)."""
        self._pending[slot * 4 + kind] += 1
        self._total += 1
        self._unsynced = True

    def _sync(self) -> None:
        if not self._unsynced:
            return
        self._unsynced = False
        pending = self._pending
        owner = self._slot_owner
        peer = self._slot_peer
        counts = self._counts
        for idx, n in enumerate(pending):
            if n:
                s, k = divmod(idx, 4)
                counts[(owner[s], peer[s])][KIND_NAMES[k]] += n
                pending[idx] = 0

    # Every per-edge read goes through one of these (directional_cost and
    # undirected_edge_total call count/edge_total, inheriting the sync).
    def count(self, src: int, dst: int, kind: str) -> int:
        self._sync()
        return super().count(src, dst, kind)

    def edge_total(self, src: int, dst: int) -> int:
        self._sync()
        return super().edge_total(src, dst)

    def by_kind(self) -> Dict[str, int]:
        self._sync()
        return super().by_kind()

    def edges(self):
        self._sync()
        return super().edges()

    def snapshot(self):
        self._sync()
        return super().snapshot()

    def reset(self) -> None:
        super().reset()
        self._pending = [0] * len(self._pending)
        self._unsynced = False


class FlatRuntime(RuntimeTelemetry):
    """Array-indexed implementation of the execution-backend protocol.

    Build it through :func:`~repro.core.backend.build_backend`, which
    decides what the flat backend can host (synchronous transport, static
    topology, built-in policies, no traces, ghost logs, crashes or
    exploration) and raises :class:`BackendUnsupported` for anything else.
    """

    backend_name = "flat"
    #: No node of a flat runtime ever crashes (crashes need the reference
    #: backend); the engines read this Backend attribute.
    crashed: frozenset = frozenset()

    def __init__(
        self,
        tree: Any,
        op: Any = SUM,
        policy_factory: Callable[[], Any] = RWWPolicy,
        *,
        cost_accounting: bool = False,
    ) -> None:
        self.tree = tree
        self.op = op
        self.policy_factory = policy_factory
        # Always disabled: the engines mark and test it around requests.
        self.trace = TraceLog(enabled=False)
        self.metrics = MetricsRegistry()
        self.sim = None
        self.recovery = None

        n = tree.n
        # ------------------------------------------------- CSR adjacency
        off = [0] * (n + 1)
        peer: List[int] = []
        for u in range(n):
            nbrs = tree.neighbors(u)
            peer.extend(nbrs)
            off[u + 1] = off[u] + len(nbrs)
        nslots = len(peer)
        owner = [0] * nslots
        for u in range(n):
            for s in range(off[u], off[u + 1]):
                owner[s] = u
        slot_index: Dict[Tuple[int, int], int] = {}
        for s in range(nslots):
            slot_index[(owner[s], peer[s])] = s
        self._off = off
        self._peer = peer
        self._owner = owner
        self._slot_index = slot_index
        self._rev = [slot_index[(peer[s], owner[s])] for s in range(nslots)]
        # For slots whose owner has degree exactly 2, the owner's *other*
        # slot (-1 otherwise).  Degree-2 nodes — every interior node of a
        # path/caterpillar spine — take specialized straight-line handlers
        # in the kernel: the "all neighbors but the sender" loops collapse
        # to one sibling lookup.
        sib = [-1] * nslots
        for u in range(n):
            if off[u + 1] - off[u] == 2:
                sib[off[u]] = off[u] + 1
                sib[off[u] + 1] = off[u]
        self._sib = sib

        # ------------------------------------------------ per-edge state
        ident = op.identity
        self._taken = [False] * nslots
        self._granted = [False] * nslots
        self._aval = [ident] * nslots
        self._uaw: List[Set[int]] = [set() for _ in range(nslots)]
        self._lt = [0] * nslots
        self._cc = [0] * nslots
        self._pa = [1] * nslots
        self._pb = [0] * nslots

        # ------------------------------------------------ per-node state
        self._val = [ident] * n
        self._upcntr = [0] * n
        self._completed = [0] * n
        self._pndg: List[Set[int]] = [set() for _ in range(n)]
        self._snt: List[Dict[int, Set[int]]] = [{} for _ in range(n)]
        # Per-slot release-window index over sntupdates: the entries
        # sourced from slot s's peer, as parallel (nid, uid) lists.  Both
        # are append-ordered and monotone (nid is the node's own counter,
        # uid the peer's), so the T6 window [t0 == v and nid >= min(S)]
        # is a bisect suffix and beta = its first uid — O(log k) instead
        # of a scan of the node's whole relay history.
        self._win_nid: List[List[int]] = [[] for _ in range(nslots)]
        self._win_uid: List[List[int]] = [[] for _ in range(nslots)]
        self._waiters: List[List[Tuple[Request, Callable]]] = [[] for _ in range(n)]
        self._scoped_waiters: List[Dict[int, List[Tuple[Request, Callable]]]] = [
            {} for _ in range(n)
        ]

        # -------------------------------------------- policy flattening
        specs = []
        mode: Optional[int] = None
        for u in range(n):
            spec = policy_spec(policy_factory())
            specs.append(spec)
            if mode is None:
                mode = spec.mode
            elif mode != spec.mode:
                raise BackendUnsupported(
                    "the flat backend needs one policy mode across all nodes"
                )
            for s in range(off[u], off[u + 1]):
                a, b = spec.ab_for(peer[s])
                self._pa[s] = a
                self._pb[s] = b
        self._mode = M_RWW if mode is None else mode
        self._specs = specs

        # ------------------------------------------------------- wiring
        self._queue: deque = deque()
        self.stats = _FlatStats(owner, peer)
        self.cost_meter: Optional[CostMeter] = (
            CostMeter(tree, self.stats) if cost_accounting else None
        )
        self._views: Optional[Dict[int, FlatNode]] = None

    # ----------------------------------------------------------------- nodes
    @property
    def nodes(self) -> Dict[int, FlatNode]:
        """node id -> live :class:`~repro.flat.views.FlatNode` view."""
        views = self._views
        if views is None:
            views = {u: FlatNode(self, u) for u in range(self.tree.n)}
            self._views = views
        return views

    @property
    def now(self) -> float:
        """Virtual time — always 0.0 (synchronous transport only)."""
        return 0.0

    # ------------------------------------------------------------ aggregates
    def _gval(self, u: int) -> Any:
        x = self._val[u]
        combine = self.op.combine
        aval = self._aval
        for t in range(self._off[u], self._off[u + 1]):
            x = combine(x, aval[t])
        return x

    def _subval(self, u: int, s: int) -> Any:
        x = self._val[u]
        combine = self.op.combine
        aval = self._aval
        for t in range(self._off[u], self._off[u + 1]):
            if t != s:
                x = combine(x, aval[t])
        return x

    def _sntprobes(self, u: int) -> Set[int]:
        already: Set[int] = set()
        for targets in self._snt[u].values():
            already |= targets
        return already

    # ---------------------------------------------------------- policy hooks
    # The initiation-side hooks of repro.core.policies, switched on the
    # flattened mode (see FlatPolicySpec).  The receive-side hooks live
    # inlined in the kernel.
    def _p_on_combine(self, u: int) -> None:
        mode = self._mode
        if mode == M_RWW or mode == M_AB:
            taken = self._taken
            lt = self._lt
            pb = self._pb
            for t in range(self._off[u], self._off[u + 1]):
                if taken[t]:
                    lt[t] = pb[t]

    def _p_on_write(self, u: int) -> None:
        if self._mode == M_AB:
            cc = self._cc
            for t in range(self._off[u], self._off[u + 1]):
                cc[t] = 0

    def _p_on_scoped(self, u: int, s: int) -> None:
        # Only RWW overrides on_scoped_combine; (a,b) variants inherit
        # the base no-op.
        if self._mode == M_RWW and self._taken[s]:
            self._lt[s] = self._pb[s]

    # ------------------------------------------------------------ initiation
    def submit_write(self, request: Request) -> None:
        """T2: a write request (completes immediately; no draining)."""
        u = request.node
        self._p_on_write(u)
        self._val[u] = self.op.lift(request.arg)
        request.index = self._completed[u]
        request.completed_at = 0.0
        self._completed[u] += 1
        self._forwardupdates(u)

    def submit_combine(
        self, request: Request, on_complete: Callable[[Request], None]
    ) -> None:
        """T1: a (scoped) combine request; completion may be immediate."""
        if request.scope is not None:
            self._begin_scoped(request, on_complete)
            return
        u = request.node
        self._p_on_combine(u)
        taken = self._taken
        lo = self._off[u]
        hi = self._off[u + 1]
        for t in range(lo, hi):
            if taken[t]:
                self._uaw[t].clear()
        if u in self._pndg[u]:
            self._waiters[u].append((request, on_complete))
            return
        if all(taken[t] for t in range(lo, hi)):
            self._finish_combine(u, [(request, on_complete)])
            return
        self._waiters[u].append((request, on_complete))
        # sendprobes(u); snt[u] = the open frontier.
        already = self._sntprobes(u)
        self._pndg[u].add(u)
        peer = self._peer
        rest = set()
        for t in range(lo, hi):
            if not taken[t]:
                v = peer[t]
                rest.add(v)
                if v not in already:
                    self.stats.sent(t, K_PROBE)
                    self._queue.append(self._rev[t] << 3)
        self._snt[u][u] = rest

    def _begin_scoped(
        self, request: Request, on_complete: Callable[[Request], None]
    ) -> None:
        u = request.node
        v = request.scope
        s = self._slot_index.get((u, v))
        if s is None:
            raise ValueError(f"scope {v} is not a neighbor of node {u}")
        self._p_on_scoped(u, s)
        self._uaw[s].clear()
        if self._taken[s]:
            self._finish_scoped(u, [(request, on_complete)], s)
            return
        waiters = self._scoped_waiters[u].setdefault(v, [])
        waiters.append((request, on_complete))
        if len(waiters) == 1 and v not in self._sntprobes(u):
            self.stats.sent(s, K_PROBE)
            self._queue.append(self._rev[s] << 3)

    def _finish_combine(
        self, u: int, waiters: List[Tuple[Request, Callable]]
    ) -> None:
        value = self._gval(u)
        completed = self._completed
        for request, on_complete in waiters:
            request.retval = value
            request.index = completed[u]
            request.completed_at = 0.0
            completed[u] += 1
            on_complete(request)

    def _finish_scoped(
        self, u: int, waiters: List[Tuple[Request, Callable]], s: int
    ) -> None:
        value = self._aval[s]
        completed = self._completed
        for request, on_complete in waiters:
            request.retval = value
            request.index = completed[u]
            request.completed_at = 0.0
            completed[u] += 1
            on_complete(request)

    def _forwardupdates(self, u: int) -> None:
        """forwardupdates after a write at ``u``: one fresh update id, sent
        to every grantee."""
        granted = self._granted
        uid = 0
        for t in range(self._off[u], self._off[u + 1]):
            if granted[t]:
                if not uid:
                    self._upcntr[u] += 1
                    uid = self._upcntr[u]
                self.stats.sent(t, K_UPDATE)
                self._queue.append((K_UPDATE, self._rev[t], self._subval(u, t), uid))

    # -------------------------------------------------------------- delivery
    def is_quiescent(self) -> bool:
        return not self._queue

    def drain(self) -> None:
        """Run the wire to quiescence (batched; see module doc)."""
        if self._queue:
            self._kernel()

    def _kernel(self) -> int:
        """Deliver until the queue is empty; returns the delivery count.

        One inlined loop with every array in a local, dispatching on the
        message kind (probe / update / response / release).  Message
        accounting goes to the pending buffers; ``stats._total`` is
        corrected once at exit.
        """
        queue = self._queue
        pop = queue.popleft
        push = queue.append
        off = self._off
        peer = self._peer
        owner = self._owner
        rev = self._rev
        sib = self._sib
        slot_index = self._slot_index
        taken = self._taken
        granted = self._granted
        aval = self._aval
        uaw = self._uaw
        lt = self._lt
        cc = self._cc
        pa = self._pa
        pb = self._pb
        val = self._val
        upcntr = self._upcntr
        completed = self._completed
        pndg_l = self._pndg
        snt_l = self._snt
        waiters_l = self._waiters
        scoped_l = self._scoped_waiters
        win_nid = self._win_nid
        win_uid = self._win_uid
        # One call level less than op.combine when op is a plain Monoid.
        combine = getattr(self.op, "combine_fn", None) or self.op.combine
        stats = self.stats
        counts = stats._pending
        stats._unsynced = True
        mode = self._mode
        is_rww = mode == M_RWW
        is_ab = mode == M_AB
        is_never = mode == M_NEVER
        timed = is_rww or is_ab
        # Modes whose break_lease can fire.  Never-lease mode never writes
        # lt, so lt stays 0 and one "lt <= 0" test serves it and the timed
        # modes alike.
        breaks = timed or is_never
        nsent = 0
        delivered = 0

        while queue:
            m = pop()
            delivered += 1
            if delivered > MAX_DELIVERIES:
                stats._total += nsent
                raise RuntimeError(
                    f"exceeded {MAX_DELIVERIES} deliveries; protocol livelock?"
                )
            if type(m) is int:
                # -------------------------------------------- T3: probe
                s = m >> 3
                o = sib[s]
                if o >= 0:
                    # Degree-2 owner: the sibling slot *is* the
                    # "every neighbor but the sender" set.
                    u = owner[s]
                    if is_ab:
                        cc[s] += 1
                    tko = taken[o]
                    if tko:
                        if timed:
                            lt[o] = pb[o]
                            if is_ab:
                                cc[o] = 0
                        uaw[o].clear()
                    pndg = pndg_l[u]
                    if peer[s] in pndg:
                        continue
                    if tko:
                        # Closed frontier: grant-check + respond.
                        if is_rww:
                            granted[s] = True
                        elif is_ab:
                            if cc[s] >= pa[s]:
                                cc[s] = 0
                                granted[s] = True
                            else:
                                granted[s] = False
                        else:
                            granted[s] = not is_never
                        counts[s * 4 + 1] += 1
                        nsent += 1
                        push((1, rev[s], combine(val[u], aval[o]), granted[s]))
                    else:
                        pndg.add(peer[s])
                        snt = snt_l[u]
                        po = peer[o]
                        if snt:
                            already = False
                            for tg in snt.values():
                                if po in tg:
                                    already = True
                                    break
                        else:
                            already = False
                        if not already:
                            counts[o * 4] += 1
                            nsent += 1
                            push(rev[o] << 3)
                        snt[peer[s]] = {po}
                    continue
                u = owner[s]
                lo = off[u]
                hi = off[u + 1]
                w = peer[s]
                if is_rww:
                    for t in range(lo, hi):
                        if taken[t] and t != s:
                            lt[t] = pb[t]
                            uaw[t].clear()
                elif is_ab:
                    cc[s] += 1
                    for t in range(lo, hi):
                        if taken[t] and t != s:
                            lt[t] = pb[t]
                            cc[t] = 0
                            uaw[t].clear()
                else:
                    for t in range(lo, hi):
                        if taken[t] and t != s:
                            uaw[t].clear()
                pndg = pndg_l[u]
                if w in pndg:
                    continue
                closed = True
                for t in range(lo, hi):
                    if not taken[t] and t != s:
                        closed = False
                        break
                if closed:
                    # sendresponse(w): everything else is covered.
                    if is_rww:
                        granted[s] = True
                    elif is_ab:
                        if cc[s] >= pa[s]:
                            cc[s] = 0
                            granted[s] = True
                        else:
                            granted[s] = False
                    else:
                        granted[s] = not is_never
                    x = val[u]
                    for t in range(lo, hi):
                        if t != s:
                            x = combine(x, aval[t])
                    counts[s * 4 + 1] += 1
                    nsent += 1
                    push((1, rev[s], x, granted[s]))
                else:
                    # sendprobes(w); snt[w] = the open frontier.
                    pndg.add(w)
                    snt = snt_l[u]
                    if snt:
                        already = set()
                        for tg in snt.values():
                            already |= tg
                    else:
                        already = ()
                    rest = set()
                    for t in range(lo, hi):
                        if not taken[t]:
                            v = peer[t]
                            if v != w:
                                rest.add(v)
                                if v not in already:
                                    counts[t * 4] += 1
                                    nsent += 1
                                    push(rev[t] << 3)
                    snt[w] = rest
                continue

            k = m[0]
            s = m[1]
            if k == 2:
                # -------------------------------------------- T5: update
                o = sib[s]
                if o >= 0:
                    # Degree-2 owner: "another grantee" can only be the
                    # sibling slot; its subval is val ⊕ aval[sender].
                    u = owner[s]
                    go = granted[o]
                    if timed and not go:
                        lt[s] -= 1
                    if is_ab:
                        cc[o] = 0
                    aval[s] = m[2]
                    uaw[s].add(m[3])
                    if go:
                        nid = upcntr[u] + 1
                        upcntr[u] = nid
                        win_nid[s].append(nid)
                        win_uid[s].append(m[3])
                        counts[o * 4 + 2] += 1
                        nsent += 1
                        push((2, rev[o], combine(val[u], aval[s]), nid))
                    elif breaks:
                        # forwardrelease: break leases whose timer ran
                        # out, in slot order; "good for release" at a
                        # degree-2 node means the *other* slot has no
                        # outstanding grant.
                        t1 = s if s < o else o
                        t2 = s + o - t1
                        if taken[t1] and lt[t1] <= 0 and not granted[t2]:
                            taken[t1] = False
                            counts[t1 * 4 + 3] += 1
                            nsent += 1
                            ut = uaw[t1]
                            push((3, rev[t1], frozenset(ut)))
                            ut.clear()
                        if taken[t2] and lt[t2] <= 0 and not granted[t1]:
                            taken[t2] = False
                            counts[t2 * 4 + 3] += 1
                            nsent += 1
                            ut = uaw[t2]
                            push((3, rev[t2], frozenset(ut)))
                            ut.clear()
                    continue
                u = owner[s]
                lo = off[u]
                hi = off[u + 1]
                good = True
                for t in range(lo, hi):
                    if granted[t] and t != s:
                        good = False
                        break
                if timed and good:
                    lt[s] -= 1
                if is_ab:
                    for t in range(lo, hi):
                        if t != s:
                            cc[t] = 0
                aval[s] = m[2]
                uaw[s].add(m[3])
                if not good:
                    # Still a relay: forward to the other grantees.
                    nid = upcntr[u] + 1
                    upcntr[u] = nid
                    win_nid[s].append(nid)
                    win_uid[s].append(m[3])
                    for t in range(lo, hi):
                        if granted[t] and t != s:
                            x = val[u]
                            for r in range(lo, hi):
                                if r != t:
                                    x = combine(x, aval[r])
                            counts[t * 4 + 2] += 1
                            nsent += 1
                            push((2, rev[t], x, nid))
                elif breaks:
                    # forwardrelease(u) — leases whose timer ran out.
                    for t in range(lo, hi):
                        if taken[t] and lt[t] <= 0:
                            ok = True
                            for r in range(lo, hi):
                                if granted[r] and r != t:
                                    ok = False
                                    break
                            if ok:
                                taken[t] = False
                                counts[t * 4 + 3] += 1
                                nsent += 1
                                ut = uaw[t]
                                push((3, rev[t], frozenset(ut)))
                                ut.clear()
            elif k == 1:
                # ------------------------------------------ T4: response
                o = sib[s]
                if o >= 0:
                    # Degree-2 owner: a completed round's respond-toward
                    # slot can only be the sibling.
                    u = owner[s]
                    flag = m[3]
                    if flag and timed:
                        lt[s] = pb[s]
                    aval[s] = m[2]
                    taken[s] = flag
                    w = peer[s]
                    sw = scoped_l[u]
                    if sw:
                        scoped = sw.pop(w, None)
                        if scoped:
                            self._finish_scoped(u, scoped, s)
                    pndg = pndg_l[u]
                    if pndg:
                        snt = snt_l[u]
                        for v in (
                            tuple(pndg) if len(pndg) == 1 else sorted(pndg)
                        ):
                            targets = snt.get(v)
                            if targets is None:
                                continue
                            targets.discard(w)
                            if not targets:
                                pndg.discard(v)
                                del snt[v]
                                if v == u:
                                    waiters = waiters_l[u]
                                    if waiters:
                                        waiters_l[u] = []
                                    t1 = s if s < o else o
                                    t2 = s + o - t1
                                    x = combine(
                                        combine(val[u], aval[t1]), aval[t2]
                                    )
                                    for request, on_complete in waiters:
                                        request.retval = x
                                        request.index = completed[u]
                                        request.completed_at = 0.0
                                        completed[u] += 1
                                        on_complete(request)
                                else:
                                    # v is the sibling's peer; respond on
                                    # slot o (closed iff s is now taken).
                                    if taken[s]:
                                        if is_rww:
                                            granted[o] = True
                                        elif is_ab:
                                            if cc[o] >= pa[o]:
                                                cc[o] = 0
                                                granted[o] = True
                                            else:
                                                granted[o] = False
                                        else:
                                            granted[o] = not is_never
                                    counts[o * 4 + 1] += 1
                                    nsent += 1
                                    push(
                                        (1, rev[o],
                                         combine(val[u], aval[s]),
                                         granted[o])
                                    )
                    continue
                u = owner[s]
                lo = off[u]
                hi = off[u + 1]
                flag = m[3]
                if flag and timed:
                    lt[s] = pb[s]
                aval[s] = m[2]
                taken[s] = flag
                w = peer[s]
                sw = scoped_l[u]
                if sw:
                    scoped = sw.pop(w, None)
                    if scoped:
                        self._finish_scoped(u, scoped, s)
                pndg = pndg_l[u]
                if pndg:
                    snt = snt_l[u]
                    for v in sorted(pndg):
                        targets = snt.get(v)
                        if targets is None:
                            continue
                        targets.discard(w)
                        if not targets:
                            pndg.discard(v)
                            del snt[v]
                            if v == u:
                                waiters = waiters_l[u]
                                if waiters:
                                    waiters_l[u] = []
                                x = val[u]
                                for t in range(lo, hi):
                                    x = combine(x, aval[t])
                                for request, on_complete in waiters:
                                    request.retval = x
                                    request.index = completed[u]
                                    request.completed_at = 0.0
                                    completed[u] += 1
                                    on_complete(request)
                            else:
                                ts = slot_index[(u, v)]
                                closed = True
                                for t in range(lo, hi):
                                    if not taken[t] and t != ts:
                                        closed = False
                                        break
                                if closed:
                                    if is_rww:
                                        granted[ts] = True
                                    elif is_ab:
                                        if cc[ts] >= pa[ts]:
                                            cc[ts] = 0
                                            granted[ts] = True
                                        else:
                                            granted[ts] = False
                                    else:
                                        granted[ts] = not is_never
                                x = val[u]
                                for t in range(lo, hi):
                                    if t != ts:
                                        x = combine(x, aval[t])
                                counts[ts * 4 + 1] += 1
                                nsent += 1
                                push((1, rev[ts], x, granted[ts]))
            else:
                # ------------------------------------------- T6: release
                o = sib[s]
                if o >= 0:
                    # Degree-2 owner: the only other slot is the sibling,
                    # and clearing granted[s] makes it good-for-release.
                    granted[s] = False
                    S = m[2]
                    if taken[o]:
                        if S:
                            nids = win_nid[o]
                            i = bisect_left(nids, min(S))
                            if i < len(nids):
                                beta = win_uid[o][i]
                                uaw[o] = {x for x in uaw[o] if x >= beta}
                            else:
                                uaw[o] = set()
                        else:
                            uaw[o] = set()
                        if timed:
                            lt[o] -= len(uaw[o])
                    if breaks:
                        # forwardrelease, in slot order.
                        t1 = s if s < o else o
                        t2 = s + o - t1
                        if taken[t1] and lt[t1] <= 0 and not granted[t2]:
                            taken[t1] = False
                            counts[t1 * 4 + 3] += 1
                            nsent += 1
                            ut = uaw[t1]
                            push((3, rev[t1], frozenset(ut)))
                            ut.clear()
                        if taken[t2] and lt[t2] <= 0 and not granted[t1]:
                            taken[t2] = False
                            counts[t2 * 4 + 3] += 1
                            nsent += 1
                            ut = uaw[t2]
                            push((3, rev[t2], frozenset(ut)))
                            ut.clear()
                    continue
                u = owner[s]
                lo = off[u]
                hi = off[u + 1]
                granted[s] = False
                S = m[2]
                min_id = min(S) if S else None
                for t in range(lo, hi):
                    if taken[t] and t != s:
                        if min_id is None:
                            uaw[t] = set()
                        else:
                            nids = win_nid[t]
                            i = bisect_left(nids, min_id)
                            if i < len(nids):
                                beta = win_uid[t][i]
                                uaw[t] = {x for x in uaw[t] if x >= beta}
                            else:
                                uaw[t] = set()
                        if timed:
                            ok = True
                            for r in range(lo, hi):
                                if granted[r] and r != t:
                                    ok = False
                                    break
                            if ok:
                                lt[t] -= len(uaw[t])
                if breaks:
                    # forwardrelease(u)
                    for t in range(lo, hi):
                        if taken[t] and lt[t] <= 0:
                            ok = True
                            for r in range(lo, hi):
                                if granted[r] and r != t:
                                    ok = False
                                    break
                            if ok:
                                taken[t] = False
                                counts[t * 4 + 3] += 1
                                nsent += 1
                                ut = uaw[t]
                                push((3, rev[t], frozenset(ut)))
                                ut.clear()

        stats._total += nsent
        return delivered

    # ------------------------------------------------------------- topology
    def set_topology(self, *args: Any, **kwargs: Any) -> None:
        raise BackendUnsupported(
            "the flat backend is static-topology; dynamic trees need the "
            "reference backend"
        )

    add_node = remove_node = rename_node = set_topology  # same refusal

    # --------------------------------------------------------- verification
    def state_snapshot(self) -> Tuple[Any, ...]:
        """Bit-identical to ``NodeRuntime.state_snapshot`` of the same
        quiescent state (pinned by tests); in-flight states are the
        model checker's, which runs on the reference backend."""
        if self._queue:
            raise RuntimeError(
                "the flat backend renders quiescent states only; drain first"
            )
        return (
            tuple(self.nodes[i].state_snapshot() for i in range(self.tree.n)),
            (),
        )

    def check_quiescent_invariants(self) -> None:
        """Assert the paper's quiescent-state lemmas on the current state."""
        _check_invariants(self.tree, self.nodes, self)

    def lease_graph_edges(self) -> List[tuple]:
        """Directed edges (u, v) with ``u.granted[v]`` — the lease graph."""
        granted = self._granted
        peer = self._peer
        off = self._off
        return [
            (u, peer[t])
            for u in range(self.tree.n)
            for t in range(off[u], off[u + 1])
            if granted[t]
        ]
