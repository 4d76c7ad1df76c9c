"""Lease policies — the underlined stubs of Figure 1 and every implementation.

A lease-based aggregation *algorithm* is the Figure-1 mechanism plus a
policy deciding when to set and break leases.  This module is the single
home of the policy layer:

* :class:`LeasePolicy` — the stub interface the mechanism calls into;
* :class:`RWWPolicy` — the paper's online policy **RWW** (Section 4,
  Figure 3), a ``(1, 2)``-algorithm;
* :class:`ABPolicy` — the generic ``(a, b)``-algorithm family (Section 4.2);
* :class:`AlwaysLeasePolicy` / :class:`NeverLeasePolicy` — the Astrolabe-like
  and MDS-2-like extremes;
* :class:`WriteOncePolicy` — the ``(1, 1)``-algorithm;
* :class:`HeterogeneousABPolicy` — per-neighbor ``(a, b)`` parameters
  (SDIMS-style per-edge tuning);
* :func:`parse_policy_spec` — the one parser of policy specs
  (``rww``, ``ab:a,b``, ...) behind every ``--policy`` option.

The mechanism invokes the policy at exactly the points marked in the
pseudocode:

===================  =====================================================
Stub                 Called from
===================  =====================================================
``on_combine``       ``T1`` line 1, before pending/lease checks
``probe_rcvd``       ``T3`` line 1
``response_rcvd``    ``T4`` line 1
``update_rcvd``      ``T5`` line 1
``release_rcvd``     ``T6`` line 1
``set_lease``        ``sendresponse``, when all other neighbors are taken
``break_lease``      ``forwardrelease``, per taken neighbor eligible for
                     release
``release_policy``   ``onrelease``, per taken neighbor after the ``uaw``
                     window is trimmed
===================  =====================================================

Policies receive the :class:`~repro.core.mechanism.LeaseNode` itself and may
read its state (``tkn()``, ``grntd()``, ``uaw`` …) but must mutate only
their own bookkeeping — the mechanism owns the protocol state.

.. note::
   The historical ``repro.core.policy`` / ``repro.core.rww`` aliases were
   shims for one release and have been removed; the protolint rule PL401
   flags any import of them with a fix hint pointing here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mechanism import LeaseNode


class LeasePolicy:
    """Base policy: never grants, never breaks (both overridable).

    The default is intentionally inert so subclasses opt in to behaviour;
    an inert policy degenerates to MDS-2-style pull-on-every-read.
    """

    def bind(self, node: "LeaseNode") -> None:
        """Called once when the owning node is constructed."""

    # ------------------------------------------------------- event callbacks
    def on_combine(self, node: "LeaseNode") -> None:
        """A combine request was initiated at ``node``."""

    def on_write(self, node: "LeaseNode") -> None:
        """A write request was executed at ``node``.

        Figure 1 has no policy stub in ``T2``; RWW does not need one.  This
        extension hook exists so generic ``(a, b)``-policies with ``a > 1``
        can observe local writes when counting *consecutive* combines; the
        default is a no-op, so paper-faithful policies are unaffected.
        """

    def probe_rcvd(self, node: "LeaseNode", w: int) -> None:
        """``node`` received a probe from neighbor ``w``."""

    def response_rcvd(self, node: "LeaseNode", flag: bool, w: int) -> None:
        """``node`` received a response (lease granted iff ``flag``) from ``w``."""

    def update_rcvd(self, node: "LeaseNode", w: int) -> None:
        """``node`` received an update from ``w``."""

    def release_rcvd(self, node: "LeaseNode", w: int) -> None:
        """``node`` received a release from ``w``."""

    # ------------------------------------------------------------- decisions
    def set_lease(self, node: "LeaseNode", w: int) -> bool:
        """Grant a lease to ``w`` alongside the response being sent?"""
        return False

    def break_lease(self, node: "LeaseNode", v: int) -> bool:
        """Break the lease ``node`` holds from ``v`` (send a release)?"""
        return False

    def release_policy(self, node: "LeaseNode", v: int) -> None:
        """Retroactive accounting for neighbor ``v`` inside ``onrelease``,
        after ``node.uaw[v]`` was trimmed to the relevant window."""

    def on_scoped_combine(self, node: "LeaseNode", v: int) -> None:
        """A scoped combine toward neighbor ``v`` was initiated at ``node``
        (extension; see :meth:`LeaseNode.begin_scoped_combine`).  The
        default treats it as combine-side activity for that one edge only.
        """

    # -------------------------------------------- dynamic-tree extension
    def neighbor_attached(self, node: "LeaseNode", v: int) -> None:
        """A new neighbor ``v`` appeared (dynamic trees).  Policies with
        per-neighbor state should create a fresh entry; state for other
        neighbors must be preserved."""

    def neighbor_detached(self, node: "LeaseNode", v: int) -> None:
        """Neighbor ``v`` left (dynamic trees); drop its entry."""


#: The lease timer's reset value: RWW tolerates this many consecutive writes.
RWW_BREAK_AFTER = 2


class RWWPolicy(LeasePolicy):
    """RWW — the paper's online lease policy (Section 4, Figure 3).

    RWW ("Read, Write, Write") sets the lease from ``u`` to ``v`` during the
    execution of a combine request in ``subtree(v, u)``, and breaks it after
    two consecutive write requests in ``subtree(u, v)`` — a
    ``(1, 2)``-algorithm (Corollary 4.1).

    Figure 3's policy table (reconstructed from Sections 4.1–4.2 and the
    invariant ``I4`` of Lemma 4.2; the figure image is absent from the text):

    ==================  =======================================================
    ``oncombine``       for each taken neighbor ``v``: ``lt[v] := 2``
    ``probercvd(w)``    for each taken neighbor ``v != w``: ``lt[v] := 2``
    ``responsercvd``    if the lease was granted (``flag``): ``lt[w] := 2``
    ``updatercvd(w)``   if no *other* lease is granted: ``lt[w] -= 1``
    ``releasercvd``     no action
    ``setlease``        always **true**
    ``breaklease(v)``   true iff ``lt[v] == 0``
    ``releasepolicy``   ``lt[v] := lt[v] - |uaw[v]|`` (retroactive accounting)
    ==================  =======================================================

    ``lt[v]`` is the *lease timer*: the number of further writes the lease
    from ``v`` survives.  While this node is itself a relay (some other
    neighbor holds a granted lease), updates are forwarded without
    decrementing ``lt`` — the downstream lease still needs them — and the
    ids pile up in ``uaw[v]``.  When the downstream lease goes away,
    ``onrelease`` trims ``uaw[v]`` to the last two relevant updates and
    ``releasepolicy`` charges them against ``lt[v]``, restoring the
    invariant ``lt[v] + |uaw[v]| = 2`` (Lemma 4.2's ``I4``).
    """

    def __init__(self) -> None:
        self.lt: Dict[int, int] = {}

    def bind(self, node: "LeaseNode") -> None:
        self.lt = {v: 0 for v in node.nbrs}

    # ------------------------------------------------------- event callbacks
    def on_combine(self, node: "LeaseNode") -> None:
        for v in node.tkn():
            self.lt[v] = RWW_BREAK_AFTER

    def probe_rcvd(self, node: "LeaseNode", w: int) -> None:
        for v in node.tkn():
            if v != w:
                self.lt[v] = RWW_BREAK_AFTER

    def response_rcvd(self, node: "LeaseNode", flag: bool, w: int) -> None:
        if flag:
            self.lt[w] = RWW_BREAK_AFTER

    def update_rcvd(self, node: "LeaseNode", w: int) -> None:
        if node.isgoodforrelease(w):
            self.lt[w] -= 1

    # ------------------------------------------------------------- decisions
    def set_lease(self, node: "LeaseNode", w: int) -> bool:
        return True

    def break_lease(self, node: "LeaseNode", v: int) -> bool:
        return self.lt[v] <= 0

    def release_policy(self, node: "LeaseNode", v: int) -> None:
        self.lt[v] = self.lt[v] - len(node.uaw[v])

    def on_scoped_combine(self, node: "LeaseNode", v: int) -> None:
        # A scoped read refreshes only the one lease it uses.
        if node.taken[v]:
            self.lt[v] = RWW_BREAK_AFTER

    # -------------------------------------------- dynamic-tree extension
    def neighbor_attached(self, node: "LeaseNode", v: int) -> None:
        self.lt[v] = 0

    def neighbor_detached(self, node: "LeaseNode", v: int) -> None:
        self.lt.pop(v, None)


class ABPolicy(LeasePolicy):
    """Generic ``(a, b)``-algorithm (Section 4.2).

    Grant the lease after ``a`` consecutive combine requests in
    ``σ(u, v)``, break it after ``b`` consecutive write requests.
    ``ABPolicy(1, 2)`` behaves exactly like RWW (asserted by tests).  For
    ``a > 1`` the combine counter is driven by the events a node can
    actually observe (probes from the neighbor; resets on local writes and
    on updates arriving from its own side), which is exact on the 2-node
    adversary tree of Theorem 3 and best-effort on larger trees — the
    paper defines the class behaviourally, and only uses it on the 2-node
    tree.

    Parameters
    ----------
    a:
        Consecutive combine requests in ``σ(u, v)`` before the lease is
        granted (``a >= 1``).
    b:
        Consecutive write requests in ``σ(u, v)`` before the lease is
        broken (``b >= 1``).
    """

    def __init__(self, a: int, b: int) -> None:
        if a < 1 or b < 1:
            raise ValueError(f"need a >= 1 and b >= 1, got a={a}, b={b}")
        self.a = a
        self.b = b
        self.lt: Dict[int, int] = {}
        self.cc: Dict[int, int] = {}

    def _ab(self, v: int) -> Tuple[int, int]:
        """The (grant, break) parameters for the edge toward neighbor ``v``."""
        return self.a, self.b

    def bind(self, node: "LeaseNode") -> None:
        self.lt = {v: 0 for v in node.nbrs}
        self.cc = {v: 0 for v in node.nbrs}

    # ------------------------------------------------------- event callbacks
    def on_combine(self, node: "LeaseNode") -> None:
        # A combine here refreshes every taken lease's write tolerance.
        for v in node.tkn():
            self.lt[v] = self._ab(v)[1]

    def on_write(self, node: "LeaseNode") -> None:
        # A local write is a write in σ(u, v) for every neighbor v: it
        # interrupts any consecutive-combine streak.
        for v in node.nbrs:
            self.cc[v] = 0

    def probe_rcvd(self, node: "LeaseNode", w: int) -> None:
        # A probe from w is a combine in subtree(w, u): it counts toward
        # granting w a lease and refreshes the other taken leases.
        self.cc[w] += 1
        for v in node.tkn():
            if v != w:
                self.lt[v] = self._ab(v)[1]
                self.cc[v] = 0

    def response_rcvd(self, node: "LeaseNode", flag: bool, w: int) -> None:
        if flag:
            self.lt[w] = self._ab(w)[1]

    def update_rcvd(self, node: "LeaseNode", w: int) -> None:
        if node.isgoodforrelease(w):
            self.lt[w] -= 1
        # An update from w is a write on w's side: for every other neighbor
        # v it is a write in σ(u, v), breaking v's combine streak.
        for v in node.nbrs:
            if v != w:
                self.cc[v] = 0

    # ------------------------------------------------------------- decisions
    def set_lease(self, node: "LeaseNode", w: int) -> bool:
        if self.cc[w] >= self._ab(w)[0]:
            self.cc[w] = 0
            return True
        return False

    def break_lease(self, node: "LeaseNode", v: int) -> bool:
        return self.lt[v] <= 0

    def release_policy(self, node: "LeaseNode", v: int) -> None:
        self.lt[v] = self.lt[v] - len(node.uaw[v])

    # -------------------------------------------- dynamic-tree extension
    def neighbor_attached(self, node: "LeaseNode", v: int) -> None:
        self.lt[v] = 0
        self.cc[v] = 0

    def neighbor_detached(self, node: "LeaseNode", v: int) -> None:
        self.lt.pop(v, None)
        self.cc.pop(v, None)


class AlwaysLeasePolicy(LeasePolicy):
    """Grant on first combine, never break — Astrolabe-like after warm-up.

    The ``(1, ∞)``-algorithm: after warm-up every write floods the tree.
    """

    def set_lease(self, node: "LeaseNode", w: int) -> bool:
        return True

    def break_lease(self, node: "LeaseNode", v: int) -> bool:
        return False


class NeverLeasePolicy(LeasePolicy):
    """Never grant a lease — MDS-2-like pull-on-every-read.

    Every combine pulls from the whole tree; writes are free.
    """

    def set_lease(self, node: "LeaseNode", w: int) -> bool:
        return False

    def break_lease(self, node: "LeaseNode", v: int) -> bool:
        # Unreachable in practice: no lease is ever taken without a grant.
        return True


class WriteOncePolicy(ABPolicy):
    """The ``(1, 1)``-algorithm: break a lease on the first write under it."""

    def __init__(self) -> None:
        super().__init__(1, 1)


class HeterogeneousABPolicy(ABPolicy):
    """Per-neighbor (a, b) parameters — SDIMS-style per-edge tuning.

    SDIMS exposes update-propagation aggressiveness as a per-attribute,
    per-level knob; the analogous per-*edge* knob here assigns each
    neighbor its own grant threshold ``a`` and break tolerance ``b``
    (falling back to ``default``).  A node can thus treat a read-hot
    subtree with ``(1, 8)`` (push eagerly, tolerate writes) and a
    write-hot one with ``(2, 1)`` (grant reluctantly, break fast).

    Every hook is :class:`ABPolicy`'s, reading the edge's parameters
    through :meth:`_ab`.  ``__init__`` does not call
    ``ABPolicy.__init__``: the state is ``params``, ``default`` and the
    ``lt``/``cc`` counters, with no ``a``/``b``, so snapshots hold only
    what the policy uses.

    Parameters
    ----------
    params:
        Mapping neighbor id -> (a, b).
    default:
        (a, b) for neighbors not in ``params`` (default RWW's (1, 2)).
    """

    def __init__(self, params: "dict[int, tuple[int, int]]" = None,
                 default: "tuple[int, int]" = (1, 2)) -> None:
        self.params = dict(params or {})
        self.default = tuple(default)
        for a, b in list(self.params.values()) + [self.default]:
            if a < 1 or b < 1:
                raise ValueError(f"need a >= 1 and b >= 1, got ({a}, {b})")
        self.lt: Dict[int, int] = {}
        self.cc: Dict[int, int] = {}

    def _ab(self, v: int) -> Tuple[int, int]:
        return self.params.get(v, self.default)


def parse_policy_spec(spec: str) -> Tuple[Callable[[], LeasePolicy], str]:
    """Parse a policy spec — ``rww | always | never | ab:a,b | random:p`` —
    into a zero-argument factory and a display name.

    Raises :class:`ValueError` on a bad spec; the CLI turns it into its
    exit message.
    """
    if spec == "rww":
        return RWWPolicy, "RWW"
    if spec == "always":
        return AlwaysLeasePolicy, "always-lease"
    if spec == "never":
        return NeverLeasePolicy, "never-lease"
    if spec.startswith("ab:"):
        try:
            a_str, b_str = spec[3:].split(",")
            a, b = int(a_str), int(b_str)
        except ValueError:
            raise ValueError(f"bad ab spec {spec!r}; expected ab:a,b") from None
        return (lambda: ABPolicy(a, b)), f"({a},{b})"
    if spec.startswith("random:"):
        from repro.core.randomized import random_break_factory

        try:
            p = float(spec[7:])
        except ValueError:
            raise ValueError(f"bad random spec {spec!r}; expected random:p") from None
        return random_break_factory(p), f"random-break[{p}]"
    raise ValueError(f"unknown policy {spec!r}")


__all__ = [
    "LeasePolicy",
    "RWWPolicy",
    "RWW_BREAK_AFTER",
    "ABPolicy",
    "AlwaysLeasePolicy",
    "NeverLeasePolicy",
    "WriteOncePolicy",
    "HeterogeneousABPolicy",
    "parse_policy_spec",
]
