"""The lease-based aggregation mechanism — a faithful Figure-1 automaton.

:class:`LeaseNode` implements the node program of Figure 1 (and its Figure-6
ghost-augmented variant): the six guarded transitions ``T1``–``T6`` plus the
helper procedures ``sendprobes``, ``forwardupdates``, ``sendresponse``,
``isgoodforrelease``, ``onrelease``, ``forwardrelease``, ``newid``, ``gval``
and ``subval``.  Policy decisions (the underlined stubs) are delegated to a
:class:`~repro.core.policies.LeasePolicy`.

The node is transport-agnostic: it emits messages through a ``send(dst,
message)`` callback and is driven by ``begin_combine`` / ``write`` /
``on_message``.  Combines complete asynchronously through a callback so the
same code runs under the sequential run-to-quiescence engine and the
concurrent discrete-event engine.

Per-node state (Figure 1's ``var`` block):

=================  =========================================================
``taken[v]``       node believes the lease *from* ``v`` *to* it is set
``granted[v]``     node believes the lease from it *to* ``v`` is set
``aval[v]``        aggregate over ``subtree(v, u)`` as last heard from ``v``
``val``            the (lifted) local value
``uaw[v]``         ids of updates received from ``v`` since the last
                   combine-side clearing ("updates after write")
``pndg``           requestors (neighbors or the node itself) with an open
                   probe round
``snt[r]``         neighbors whose responses requestor ``r``'s round awaits
``upcntr``         update-id counter (``newid``)
``sntupdates``     (node, rcvid, sntid) triples recording relayed updates
=================  =========================================================
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, ClassVar, Dict, List, Optional, Set, Tuple, Type

from repro.core.ghost import GhostLog
from repro.core.messages import Message, Probe, Release, Response, Revoke, Update
from repro.core.policies import LeasePolicy
from repro.ops.monoid import AggregationOperator
from repro.sim.trace import TraceLog
from repro.tree.topology import Tree
from repro.util.canon import canonical_value
from repro.workloads.requests import Request

#: Transport callback signature: send(dst, message).
SendFn = Callable[[int, Message], None]
#: Combine-completion callback: receives the completed Request.
CompleteFn = Callable[[Request], None]


class LeaseNode:
    """One node of the aggregation tree running the lease mechanism.

    Parameters
    ----------
    node_id:
        This node's id in ``tree``.
    tree:
        The shared topology (used only for neighbor sets and, via ghosts,
        the node count).
    op:
        The aggregation operator ``⊕``.
    policy:
        Lease set/break policy (e.g. :class:`~repro.core.policies.RWWPolicy`).
        Each node needs its own policy instance.
    send:
        Transport callback; must deliver reliably and FIFO per edge.
    trace:
        Optional :class:`~repro.sim.trace.TraceLog` for structured events.
    ghost:
        Enable Section-5 ghost logs (pure instrumentation).
    clock:
        Zero-argument callable returning the current virtual time (used
        only for trace/ghost timestamps).
    """

    def __init__(
        self,
        node_id: int,
        tree: Tree,
        op: AggregationOperator,
        policy: LeasePolicy,
        send: SendFn,
        trace: Optional[TraceLog] = None,
        ghost: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.id = node_id
        self.tree = tree
        self.op = op
        self.policy = policy
        self._send = send
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self._clock = clock if clock is not None else (lambda: 0.0)

        self.nbrs: Tuple[int, ...] = tree.neighbors(node_id)
        self.val: Any = op.identity
        self.taken: Dict[int, bool] = {v: False for v in self.nbrs}
        self.granted: Dict[int, bool] = {v: False for v in self.nbrs}
        self.aval: Dict[int, Any] = {v: op.identity for v in self.nbrs}
        self.uaw: Dict[int, Set[int]] = {v: set() for v in self.nbrs}
        self.pndg: Set[int] = set()
        self.snt: Dict[int, Set[int]] = {}
        self.upcntr = 0
        self.sntupdates: List[Tuple[int, int, int]] = []

        # Precomputed per-neighbor send callables: one bound partial per
        # directed edge instead of a closure frame on every send.
        self._send_to: Dict[int, Callable[[Message], None]] = {
            v: partial(send, v) for v in self.nbrs
        }

        self.completed_requests = 0
        self._waiters: List[Tuple[Request, CompleteFn]] = []
        self._scoped_waiters: Dict[int, List[Tuple[Request, CompleteFn]]] = {}
        self.ghost: Optional[GhostLog] = GhostLog(tree.n) if ghost else None
        policy.bind(self)

    # ----------------------------------------------------------- state views
    def tkn(self) -> List[int]:
        """Neighbors ``v`` with ``taken[v]`` (sorted for determinism)."""
        return [v for v in self.nbrs if self.taken[v]]

    def grntd(self) -> List[int]:
        """Neighbors ``v`` with ``granted[v]`` (sorted for determinism)."""
        return [v for v in self.nbrs if self.granted[v]]

    def sntprobes(self) -> Set[int]:
        """Union of all outstanding probe targets (Figure 1's ``sntprobes``)."""
        out: Set[int] = set()
        for targets in self.snt.values():
            out |= targets
        return out

    def gval(self) -> Any:
        """The node's current view of the global aggregate."""
        x = self.val
        for v in self.nbrs:
            x = self.op.combine(x, self.aval[v])
        return x

    def subval(self, w: int) -> Any:
        """Aggregate over ``subtree(self, w)``: everything except ``w``'s side."""
        x = self.val
        for v in self.nbrs:
            if v != w:
                x = self.op.combine(x, self.aval[v])
        return x

    def newid(self) -> int:
        """Fresh monotone update identifier."""
        self.upcntr += 1
        return self.upcntr

    # ------------------------------------------------------------- transport
    def send(self, dst: int, message: Message) -> None:
        sender = self._send_to.get(dst)
        if sender is None:
            # Not a precomputed neighbor: let the transport raise its
            # not-a-tree-edge error.
            self._send(dst, message)
            return
        sender(message)

    def rebind_send(self, send: SendFn) -> None:
        """Replace the transport callback and rebuild the per-neighbor
        send callables (dynamic rename: the node's own id changed)."""
        self._send = send
        self._send_to = {v: partial(send, v) for v in self.nbrs}

    def _wlog_snapshot(self) -> Optional[Tuple[Request, ...]]:
        return self.ghost.wlog_snapshot() if self.ghost is not None else None

    #: Class-keyed dispatch table for :meth:`on_message` — one dict lookup
    #: on the exact message type instead of an ``isinstance`` chain.
    #: Populated after the class body (handlers must exist); message
    #: subclasses are resolved through the MRO on first sight and cached.
    _DISPATCH: ClassVar[Dict[Type[Message], Callable[["LeaseNode", int, Message], None]]] = {}

    def on_message(self, src: int, message: Message) -> None:
        """Dispatch a received message to the matching transition."""
        handler = self._DISPATCH.get(type(message))
        if handler is None:
            handler = self._resolve_handler(type(message))
        handler(self, src, message)

    @classmethod
    def _resolve_handler(
        cls, msg_type: Type[Message]
    ) -> Callable[["LeaseNode", int, Message], None]:
        """Slow path: walk the MRO for message subclasses, cache the hit."""
        for base in msg_type.__mro__:
            handler = cls._DISPATCH.get(base)
            if handler is not None:
                cls._DISPATCH[msg_type] = handler
                return handler
        raise TypeError(f"unknown message type {msg_type.__name__}")

    def _dispatch_probe(self, src: int, message: Message) -> None:
        self._t3_probe(src)

    def _dispatch_revoke(self, src: int, message: Message) -> None:
        self._on_revoke(src)

    # -------------------------------------------------------------------- T1
    def begin_combine(self, request: Request, on_complete: CompleteFn) -> None:
        """T1: a combine request initiated at this node.

        ``on_complete`` fires (possibly immediately) once the global
        aggregate is known; the request's ``retval``/``index`` are filled
        in first.
        """
        self.policy.on_combine(self)
        for v in self.tkn():
            self.uaw[v].clear()
        if self.id not in self.pndg:
            if all(self.taken[v] for v in self.nbrs):
                self._finish_combine([(request, on_complete)])
                return
            self._waiters.append((request, on_complete))
            self._sendprobes(self.id)
            self.snt[self.id] = {v for v in self.nbrs if not self.taken[v]}
        else:
            # A probe round for this node is already open (concurrent
            # executions only); the combine joins it and completes with it.
            self._waiters.append((request, on_complete))

    def _finish_combine(self, waiters: List[Tuple[Request, CompleteFn]]) -> None:
        value = self.gval()
        for request, on_complete in waiters:
            request.retval = value
            request.index = self.completed_requests
            request.completed_at = self._clock()
            self.completed_requests += 1
            if self.ghost is not None:
                self.ghost.append_gather(request)
            self.trace.emit(self._clock(), "combine_done", self.id, value=value)
            on_complete(request)

    # --------------------------------------------------- scoped combines (ext.)
    def begin_scoped_combine(self, request: Request, on_complete: CompleteFn) -> None:
        """A *scoped* combine: return the aggregate over
        ``subtree(request.scope, self)`` only (extension; SDIMS-style
        partial reads).  Served from ``aval`` when the lease from that
        neighbor is held, otherwise by a single probe wave into that
        subtree — reusing the ordinary T3/T4 relay machinery unchanged.
        """
        v = request.scope
        if v not in self.taken:
            raise ValueError(f"scope {v} is not a neighbor of node {self.id}")
        self.policy.on_scoped_combine(self, v)
        self.uaw[v].clear()
        if self.taken[v]:
            self._finish_scoped([(request, on_complete)], v)
            return
        waiters = self._scoped_waiters.setdefault(v, [])
        waiters.append((request, on_complete))
        if v not in self.sntprobes() and len(waiters) == 1:
            self.send(v, Probe())

    def _finish_scoped(self, waiters: List[Tuple[Request, CompleteFn]], v: int) -> None:
        value = self.aval[v]
        for request, on_complete in waiters:
            request.retval = value
            request.index = self.completed_requests
            request.completed_at = self._clock()
            self.completed_requests += 1
            self.trace.emit(self._clock(), "scoped_combine_done", self.id, toward=v, value=value)
            on_complete(request)

    # -------------------------------------------------------------------- T2
    def write(self, request: Request) -> None:
        """T2: a write request at this node (completes immediately)."""
        self.policy.on_write(self)
        self.val = self.op.lift(request.arg)
        request.index = self.completed_requests
        request.completed_at = self._clock()
        self.completed_requests += 1
        if self.ghost is not None:
            self.ghost.append_write(request)
        self.trace.emit(self._clock(), "write_done", self.id, arg=request.arg)
        if self.grntd():
            upd_id = self.newid()
            self._forwardupdates(self.id, upd_id)

    # -------------------------------------------------------------------- T3
    def _t3_probe(self, w: int) -> None:
        self.policy.probe_rcvd(self, w)
        for v in self.tkn():
            if v != w:
                self.uaw[v].clear()
        if w not in self.pndg:
            rest = {v for v in self.nbrs if not self.taken[v] and v != w}
            if not rest:
                self._sendresponse(w)
            else:
                self._sendprobes(w)
                self.snt[w] = rest

    # -------------------------------------------------------------------- T4
    def _t4_response(self, w: int, msg: Response) -> None:
        self.policy.response_rcvd(self, msg.flag, w)
        self.aval[w] = msg.x
        if self.ghost is not None and msg.wlog is not None:
            self.ghost.merge(msg.wlog)
        if msg.flag and not self.taken[w]:
            self.trace.emit(self._clock(), "lease_acquired", self.id, source=w)
        self.taken[w] = msg.flag
        scoped = self._scoped_waiters.pop(w, None)
        if scoped:
            self._finish_scoped(scoped, w)
        for v in sorted(self.pndg):
            targets = self.snt.get(v)
            if targets is None:
                continue
            targets.discard(w)
            if not targets:
                self.pndg.discard(v)
                del self.snt[v]
                if v == self.id:
                    waiters, self._waiters = self._waiters, []
                    self._finish_combine(waiters)
                else:
                    self._sendresponse(v)

    # -------------------------------------------------------------------- T5
    def _t5_update(self, w: int, msg: Update) -> None:
        self.policy.update_rcvd(self, w)
        self.aval[w] = msg.x
        if self.ghost is not None and msg.wlog is not None:
            self.ghost.merge(msg.wlog)
        self.uaw[w].add(msg.id)
        if [v for v in self.grntd() if v != w]:
            nid = self.newid()
            self.sntupdates.append((w, msg.id, nid))
            self._forwardupdates(w, nid)
        else:
            self._forwardrelease()

    # -------------------------------------------------------------------- T6
    def _t6_release(self, w: int, msg: Release) -> None:
        self.policy.release_rcvd(self, w)
        if self.granted[w]:
            self.trace.emit(self._clock(), "lease_broken", self.id, grantee=w)
        self.granted[w] = False
        self._onrelease(w, msg.S)

    # ------------------------------------------------------------ procedures
    def _sendprobes(self, w: int) -> None:
        """``sendprobes(w)``: open (or extend) requestor ``w``'s probe round."""
        self.pndg.add(w)
        already = self.sntprobes()
        targets = [
            v for v in self.nbrs if not self.taken[v] and v != w and v not in already
        ]
        if targets:
            self.trace.emit(
                self._clock(), "probe_round", self.id, requestor=w, targets=targets
            )
        for v in targets:
            self.send(v, Probe())

    def _forwardupdates(self, w: int, upd_id: int) -> None:
        """``forwardupdates(w, id)``: push fresh subvals to all granted
        neighbors except ``w``."""
        wlog = self._wlog_snapshot()
        for v in self.grntd():
            if v != w:
                self.send(v, Update(x=self.subval(v), id=upd_id, wlog=wlog))

    def _sendresponse(self, w: int) -> None:
        """``sendresponse(w)``: answer ``w``'s probe, possibly granting a lease."""
        if not [v for v in self.nbrs if not self.taken[v] and v != w]:
            new_flag = bool(self.policy.set_lease(self, w))
            if new_flag and not self.granted[w]:
                self.trace.emit(self._clock(), "lease_granted", self.id, grantee=w)
            self.granted[w] = new_flag
        self.send(w, Response(x=self.subval(w), flag=self.granted[w], wlog=self._wlog_snapshot()))

    def isgoodforrelease(self, w: int) -> bool:
        """No granted lease besides (possibly) ``w`` — releases may flow up."""
        return not [v for v in self.grntd() if v != w]

    def _onrelease(self, w: int, S: frozenset) -> None:
        """``onrelease(w, S)``: trim ``uaw`` windows and propagate the release.

        For each still-taken neighbor ``v`` (other than ``w``), keep only the
        ``uaw[v]`` ids at least as recent as the oldest update relayed to
        ``w`` within ``S``'s window (the ``sntupdates`` lookup); when no
        relayed update from ``v`` falls in the window — including when ``S``
        is empty — the lease from ``v`` carries no recent write pressure and
        ``uaw[v]`` resets to ∅ (DESIGN.md decision 3; preserves invariant
        I4).
        """
        min_id = min(S) if S else None
        for v in self.tkn():
            if v == w:
                continue
            if min_id is None:
                window: List[Tuple[int, int, int]] = []
            else:
                window = [t for t in self.sntupdates if t[0] == v and t[2] >= min_id]
            if window:
                beta_rcvid = min(t[1] for t in window)
                self.uaw[v] = {i for i in self.uaw[v] if i >= beta_rcvid}
            else:
                self.uaw[v] = set()
            if self.isgoodforrelease(v):
                self.policy.release_policy(self, v)
        self._forwardrelease()

    def _forwardrelease(self) -> None:
        """``forwardrelease()``: break any taken lease the policy agrees to
        break, provided no other granted lease still needs it."""
        for v in self.tkn():
            if (
                self.isgoodforrelease(v)
                and self.taken[v]
                and self.policy.break_lease(self, v)
            ):
                self.taken[v] = False
                self.trace.emit(self._clock(), "lease_released", self.id, source=v)
                self.send(v, Release(S=frozenset(self.uaw[v])))
                self.uaw[v].clear()

    # ----------------------------------------------- dynamic-tree extension
    def revoke_granted(self) -> None:
        """Void every lease this node granted (topology changed on our side).

        Sends a :class:`~repro.core.messages.Revoke` to each granted
        neighbor; receivers cascade (see :meth:`_on_revoke`).  Used by the
        dynamic-tree engine — never by the paper's Figure-1 protocol.
        """
        for v in self.grntd():
            self.granted[v] = False
            self.trace.emit(self._clock(), "lease_revoked", self.id, grantee=v)
            self.send(v, Revoke())
        self._renormalize_after_revoke()

    def _on_revoke(self, w: int) -> None:
        """The lease from ``w`` is void: drop it and cascade to the grantees
        whose coverage relied on it (Lemma 3.2).  The reverse lease back to
        ``w`` itself (if any) covers only this side of the tree and
        survives."""
        if self.taken[w]:
            self.trace.emit(self._clock(), "lease_voided", self.id, source=w)
        self.taken[w] = False
        self.uaw[w].clear()
        for v in self.grntd():
            if v != w:
                self.granted[v] = False
                self.trace.emit(self._clock(), "lease_revoked", self.id, grantee=v)
                self.send(v, Revoke())
        self._renormalize_after_revoke()
        # Crash-recovery healing: a revoke from ``w`` can mean ``w`` crashed
        # and came back — any probe we sent it (or its response) may have
        # died with it.  Re-probe once; duplicate responses are idempotent
        # (T4 discards ``w`` from every open round on the first one).  In
        # the paper's protocol and the dynamic engine revokes only happen
        # at quiescence, where no round is open, so this never fires there.
        stuck = any(w in targets for targets in self.snt.values()) or bool(
            self._scoped_waiters.get(w)
        )
        if stuck:
            self.send(w, Probe())

    def _renormalize_after_revoke(self) -> None:
        """Restore the policy's lease-timer bookkeeping (RWW's I4) for taken
        leases that just stopped being relays: charge their pending ``uaw``
        retroactively, exactly as ``onrelease`` would, and break any lease
        that can no longer tolerate writes."""
        for y in self.tkn():
            if self.isgoodforrelease(y) and self.uaw[y]:
                self.policy.release_policy(self, y)
        self._forwardrelease()

    # ------------------------------------------------ crash-recovery extension
    def crash_volatile(self) -> List[Request]:
        """The node crashed: every open request and probe round dies with
        its volatile state.  Returns the now-failed requests so the engine
        can close their spans (their completion callbacks never fire).
        Durable state (``val``, ``upcntr``, ghost logs) is untouched —
        restoring the lease tables from the last checkpoint is the recovery
        layer's job (:mod:`repro.recovery`)."""
        failed = [q for q, _ in self._waiters]
        self._waiters = []
        for ws in self._scoped_waiters.values():
            failed.extend(q for q, _ in ws)
        self._scoped_waiters = {}
        self.pndg.clear()
        self.snt.clear()
        return failed

    def recover_reconcile(self) -> None:
        """Post-restart lease reconciliation.

        Whatever the restored checkpoint claims, the node cannot trust any
        lease across its incident edges — peers may have expired, released
        or re-granted them while it was down.  So it voids both directions
        of every edge and *tells the peers so*: a ``Release(∅)`` breaks the
        lease the peer thinks it granted us, a ``Revoke`` voids the lease
        the peer thinks it holds from us (cascading per Lemma 3.2).  Cached
        ``aval`` views and ``uaw`` windows are stale and reset with them,
        and the per-neighbor policy bookkeeping restarts fresh via the
        detach/attach hooks.  A probe round for the node itself then
        re-pulls fresh subtree values (and leases, per policy) from every
        neighbor — completing silently, like a combine with no waiters.
        """
        for v in self.nbrs:
            if self.taken[v]:
                self.trace.emit(self._clock(), "lease_voided", self.id, source=v)
            if self.granted[v]:
                self.trace.emit(self._clock(), "lease_revoked", self.id, grantee=v)
            self.taken[v] = False
            self.granted[v] = False
            self.aval[v] = self.op.identity
            self.uaw[v] = set()
            self.policy.neighbor_detached(self, v)
            self.policy.neighbor_attached(self, v)
            self.send(v, Release(S=frozenset()))
            self.send(v, Revoke())
        self.sntupdates = []
        if self.nbrs:
            self._sendprobes(self.id)
            self.snt[self.id] = set(self.nbrs)

    def expire_taken(self, v: int) -> None:
        """TTL expiry of the lease *from* ``v``: locally synthesize the
        :class:`Revoke` a dead ``v`` can never send.  Cascades exactly like
        a received revoke, so Lemma 3.2 coverage is preserved (grantees
        relying on this lease lose theirs too instead of serving stale
        reads).  A :class:`Release` then tells the granter we relinquished
        — restoring Lemma 3.1 symmetry through the normal T6 transition
        when ``v`` is reachable; when it is not, ``v``'s own (grace-
        delayed) granted-side expiry is the fallback."""
        if not self.taken.get(v, False):
            return
        self.trace.emit(self._clock(), "lease_expired", self.id, peer=v, side="taken")
        S = frozenset(self.uaw[v])
        self._on_revoke(v)
        self.send(v, Release(S=S))

    def expire_granted(self, v: int) -> None:
        """TTL expiry of the lease granted *to* ``v``: locally synthesize
        the ``Release(∅)`` a dead ``v`` can never send, so writes here stop
        paying update traffic toward a dead subtree."""
        if not self.granted.get(v, False):
            return
        self.trace.emit(self._clock(), "lease_expired", self.id, peer=v, side="granted")
        self.trace.emit(self._clock(), "lease_broken", self.id, grantee=v)
        self.granted[v] = False
        self._onrelease(v, frozenset())

    def attach_neighbor(self, v: int, tree: Tree) -> None:
        """Gain neighbor ``v`` after a topology change (fresh, un-leased
        state).  ``tree`` is the updated topology object."""
        self.tree = tree
        self.nbrs = tree.neighbors(self.id)
        self.taken[v] = False
        self.granted[v] = False
        self.aval[v] = self.op.identity
        self.uaw[v] = set()
        self._send_to[v] = partial(self._send, v)
        self.policy.neighbor_attached(self, v)

    def detach_neighbor(self, v: int, tree: Tree) -> None:
        """Lose neighbor ``v`` after a topology change; all state toward it
        is dropped.  ``tree`` is the updated topology object (callers may
        pass the pre-compaction tree, so ``v`` is filtered explicitly)."""
        self.tree = tree
        self.nbrs = [u for u in tree.neighbors(self.id) if u != v]
        for table in (self.taken, self.granted, self.aval, self.uaw):
            table.pop(v, None)
        self.snt.pop(v, None)
        self.pndg.discard(v)
        # A round still waiting on the departed neighbor (possible when a
        # crashed machine leaves without recovering — its response died on
        # the black-holed wire) would otherwise hang forever: treat the
        # detach as its empty response and let the round close.
        for root in sorted(self.pndg):
            targets = self.snt.get(root)
            if targets is None or v not in targets:
                continue
            targets.discard(v)
            if not targets:
                self.pndg.discard(root)
                del self.snt[root]
                if root == self.id:
                    waiters, self._waiters = self._waiters, []
                    self._finish_combine(waiters)
                else:
                    self._sendresponse(root)
        self.sntupdates = [t for t in self.sntupdates if t[0] != v]
        self._send_to.pop(v, None)
        self.policy.neighbor_detached(self, v)

    def rename_neighbor(self, old: int, new: int) -> None:
        """Neighbor ``old`` is now called ``new`` (dense-id compaction in
        dynamic trees).  Every per-neighbor table — protocol state, the
        policy's bookkeeping, and the precomputed send callable — is
        re-keyed; the protocol state itself is untouched."""
        if old not in self._send_to:
            return
        for table in (self.taken, self.granted, self.aval, self.uaw):
            if old in table:
                table[new] = table.pop(old)
        if old in self.snt:
            self.snt[new] = self.snt.pop(old)
        for targets in self.snt.values():
            # Open rounds may be *waiting on* the renamed neighbor too.
            if old in targets:
                targets.discard(old)
                targets.add(new)
        if old in self.pndg:
            self.pndg.discard(old)
            self.pndg.add(new)
        self.sntupdates = [
            ((new if t[0] == old else t[0]), t[1], t[2]) for t in self.sntupdates
        ]
        del self._send_to[old]
        self._send_to[new] = partial(self._send, new)
        # Policy per-neighbor tables (lt/cc dicts where present).
        for attr in ("lt", "cc"):
            d = getattr(self.policy, attr, None)
            if isinstance(d, dict) and old in d:
                d[new] = d.pop(old)

    # ------------------------------------------------------------ inspection
    def state_snapshot(self) -> Tuple[Any, ...]:
        """Canonical, hashable rendering of the node's complete protocol
        state — every Figure-1 variable, the policy's bookkeeping, open
        waiters, and the ghost log when enabled.

        Two nodes with equal snapshots behave identically under any future
        message schedule, which is what lets the small-scope model checker
        (:mod:`repro.verify.explore`) dedupe explored states by hash.  The
        rendering is deterministic (all per-neighbor tables are sorted) and
        built from :func:`~repro.util.canon.canonical_value`.
        """
        policy_state = canonical_value(
            {k: v for k, v in vars(self.policy).items() if not k.startswith("_")}
        )
        ghost_state = (
            (
                tuple(canonical_value(q) for q in self.ghost.log),
                tuple(canonical_value(q) for q in self.ghost.wlog),
            )
            if self.ghost is not None
            else None
        )
        return (
            self.id,
            canonical_value(self.val),
            tuple(sorted((v, self.taken[v]) for v in self.nbrs)),
            tuple(sorted((v, self.granted[v]) for v in self.nbrs)),
            tuple(sorted((v, canonical_value(self.aval[v])) for v in self.nbrs)),
            tuple(sorted((v, tuple(sorted(self.uaw[v]))) for v in self.nbrs)),
            tuple(sorted(self.pndg)),
            tuple(sorted((r, tuple(sorted(t))) for r, t in self.snt.items())),
            self.upcntr,
            tuple(self.sntupdates),
            self.completed_requests,
            tuple(canonical_value(q) for q, _ in self._waiters),
            tuple(
                sorted(
                    (v, tuple(canonical_value(q) for q, _ in ws))
                    for v, ws in self._scoped_waiters.items()
                    if ws
                )
            ),
            policy_state,
            ghost_state,
        )

    def has_pending(self) -> bool:
        """Any open probe round at this node?"""
        return bool(self.pndg) or bool(self._waiters)

    def quiescent_state_ok(self) -> bool:
        """Lemma 3.4's per-node quiescence: ``pndg`` and every ``snt`` empty."""
        return not self.pndg and all(not s for s in self.snt.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LeaseNode(id={self.id}, val={self.val!r}, "
            f"taken={[v for v in self.nbrs if self.taken[v]]}, "
            f"granted={[v for v in self.nbrs if self.granted[v]]})"
        )


LeaseNode._DISPATCH.update(
    {
        Probe: LeaseNode._dispatch_probe,
        Response: LeaseNode._t4_response,
        Update: LeaseNode._t5_update,
        Release: LeaseNode._t6_release,
        Revoke: LeaseNode._dispatch_revoke,
    }
)
