"""Dynamic trees: node join/leave with lease revocation (extension).

The paper's tree is static, but the aggregation frameworks it targets
(SDIMS's DHT trees, Astrolabe's zones) reconfigure as machines come and
go.  :class:`DynamicAggregationSystem` extends the sequential engine with
leaf attach/detach between requests (in quiescent states), preserving
strict consistency:

* **Why revocation is necessary.**  A lease ``u → v`` promises that ``v``'s
  cached ``aval`` covers all of ``subtree(u, v)``.  When that subtree gains
  or loses a member, the promise is void: a new machine's writes would
  never propagate (it holds no leases), and a departed machine's value
  would linger in caches forever.  The change site therefore *revokes*
  every lease it granted, and revocation cascades down the lease graph
  (each revoked node's own grants relied on the revoked coverage —
  Lemma 3.2).  Subsequent combines re-pull and re-lease through the
  ordinary protocol.
* **Cost accounting.**  Each revocation is one ``revoke`` message, counted
  in the same per-edge statistics, so reconfiguration cost is measurable
  (see the EXT-DYN benchmark).
* **What survives.**  Leases *toward* the change site from other subtrees
  are untouched (their coverage is unaffected), so reconfiguration cost is
  proportional to the revoked lease graph, not the tree.

Node ids are never reused: a removed leaf's id stays retired, and combine
values aggregate over the *live* membership only.

The engine itself is a thin driver: it subclasses
:class:`~repro.core.engine.AggregationSystem` and implements topology
changes with the runtime's attach/detach/rename primitives
(:meth:`~repro.core.runtime.NodeRuntime.add_node` /
``remove_node`` / ``rename_node`` / ``set_topology``) plus the node-level
:meth:`~repro.core.mechanism.LeaseNode.attach_neighbor` /
``detach_neighbor`` / ``rename_neighbor`` hooks.  Because transports come
from the same :class:`~repro.sim.transport.TransportConfig` factory, the
dynamic engine also runs over faulty or reliable stacks — attach/detach
under faults needs nothing extra.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.engine import AggregationSystem, PolicyFactory
from repro.core.policies import RWWPolicy
from repro.obs.metrics import MetricsRegistry
from repro.ops.monoid import AggregationOperator
from repro.ops.standard import SUM
from repro.sim.transport import TransportConfig
from repro.tree.topology import Tree
from repro.workloads.requests import Request


class DynamicAggregationSystem(AggregationSystem):
    """Sequential aggregation over a tree whose leaves may come and go.

    Starts from an initial tree; ``add_leaf(parent)`` grows a fresh node
    under ``parent`` and returns its id; ``remove_leaf(node)`` retires a
    current leaf.  Both run the revocation protocol and drain the network
    before returning, so every topology change completes in a quiescent
    state.  Requests execute exactly as in
    :class:`~repro.core.engine.AggregationSystem` (including telemetry).

    Topology changes need the reference backend's attach/detach/rename
    primitives, so ``backend="flat"`` here *falls back* to the reference
    backend instead of raising (``_backend_require``/``_backend_fallback``
    below) — callers sweeping the backend axis over mixed workloads don't
    have to special-case the dynamic engine.
    """

    _backend_require = ("dynamic",)
    _backend_fallback = True

    def __init__(
        self,
        tree: Tree,
        op: AggregationOperator = SUM,
        policy_factory: PolicyFactory = RWWPolicy,
        trace_enabled: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        transport: Optional[TransportConfig] = None,
        seed: int = 0,
        cost_accounting: bool = False,
        backend: str = "reference",
    ) -> None:
        super().__init__(
            tree,
            op=op,
            policy_factory=policy_factory,
            trace_enabled=trace_enabled,
            metrics=metrics,
            transport=transport,
            seed=seed,
            cost_accounting=cost_accounting,
            backend=backend,
        )
        self._edges: Set[Tuple[int, int]] = {tuple(sorted(e)) for e in tree.edges}
        self._live: Set[int] = set(tree.nodes())

    # ------------------------------------------------------------- topology
    @property
    def live_nodes(self) -> Set[int]:
        """Ids of current members."""
        return set(self._live)

    def _set_topology(self, edges: Set[Tuple[int, int]]) -> Tree:
        """Build the internal Tree for the live membership.

        The Tree class requires dense ids 0..n-1, so the dynamic engine
        keeps a dense *view*: live external ids are mapped onto dense
        internal ids.  To keep the rest of the stack simple we instead
        maintain the invariant that external ids stay dense: removals are
        only allowed for the id-order-irrelevant leaf case and we compact
        by remapping the highest live id onto the hole.  See
        :meth:`remove_leaf` for the remap contract.
        """
        n = len(self._live)
        assert set(range(n)) == self._live, "internal id compaction broken"
        return Tree(n, sorted(edges))

    def add_leaf(self, parent: int) -> int:
        """Attach a fresh node under ``parent``; returns the new node's id.

        Revokes every lease ``parent`` granted (their coverage changed),
        cascading through the lease graph, then splices the new node in.
        """
        if parent not in self._live:
            raise ValueError(f"parent {parent} is not a live node")
        if not self.runtime.is_quiescent():
            raise RuntimeError("topology change while messages are in transit")
        # 1. Revoke the grants whose coverage is about to change.
        self.nodes[parent].revoke_granted()
        self.runtime.drain()
        # 2. Splice in the new node.
        new_id = len(self._live)
        self._live.add(new_id)
        self._edges.add(tuple(sorted((parent, new_id))))
        new_tree = self._set_topology(self._edges)
        self.runtime.set_topology(new_tree)
        self.runtime.add_node(new_id, new_tree)
        self.nodes[parent].attach_neighbor(new_id, new_tree)
        self.nodes[new_id].nbrs = new_tree.neighbors(new_id)
        return new_id

    # --------------------------------------------------------- crash/recover
    def crash_node(self, node: int):
        """Crash a live member: its traffic black-holes and its volatile
        state dies (see :meth:`NodeRuntime.crash`).  Returns the requests
        that died with it.  The member stays in the tree — remove it with
        :meth:`remove_leaf` (allowed while crashed) if it never comes back.
        """
        if node not in self._live:
            raise ValueError(f"node {node} is not a live node")
        return self.runtime.crash(node)

    def recover_node(self, node: int) -> None:
        """Recover a crashed member: reopen the wire and run the lease
        reconciliation round, then drain the resulting traffic so the
        engine returns at quiescence like every other dynamic operation."""
        if node not in self._live:
            raise ValueError(f"node {node} is not a live node")
        self.runtime.recover(node)
        self.runtime.drain()

    @property
    def crashed_nodes(self) -> Set[int]:
        """Ids of currently-crashed members."""
        return set(self.runtime.crashed)

    def remove_leaf(self, node: int) -> Dict[int, int]:
        """Retire leaf ``node``; returns the id remapping applied.

        The engine keeps ids dense, so the highest live id is renamed onto
        the vacated slot (unless the leaf *is* the highest id).  The
        returned dict maps old id -> new id for every renamed node (empty
        or a single entry).  Callers tracking external names should apply
        it to their own tables.
        """
        if node not in self._live:
            raise ValueError(f"node {node} is not live")
        if len(self._live) == 1:
            raise ValueError("cannot remove the last node")
        neighbors = self.tree.neighbors(node)
        if len(neighbors) != 1:
            raise ValueError(f"node {node} is not a leaf (degree {len(neighbors)})")
        if not self.runtime.is_quiescent():
            raise RuntimeError("topology change while messages are in transit")
        parent = neighbors[0]
        # 1. The parent's grants covered the departing leaf: revoke them.
        #    A *crashed* leaf may leave too (churn): the revoke toward it
        #    dies on the black-holed wire as a declared loss — correct,
        #    the machine is gone — while the cascade to live grantees runs
        #    normally.  The crash flag is cleared before the id compaction
        #    below so it can never dangle on the renamed survivor.
        self.nodes[parent].revoke_granted()
        self.runtime.drain()
        if node in self.runtime.crashed:
            self.runtime.crashed.discard(node)
            self.runtime.network.recover_node(node)
        # 2. Drop the leaf and its edge.
        self._edges.discard(tuple(sorted((node, parent))))
        self._live.discard(node)
        self.runtime.remove_node(node)
        self.nodes[parent].detach_neighbor(node, self.tree)  # tree updated below
        # Detaching can close a round that was stuck waiting on the departed
        # (crashed) leaf; drain the resulting responses before compaction.
        self.runtime.drain()
        # 3. Compact ids: rename the highest id onto the hole.
        remap: Dict[int, int] = {}
        highest = len(self._live)  # == max id value still expected
        if node != highest:
            remap[highest] = node
            self._rename_node(highest, node)
        new_tree = self._set_topology(self._edges)
        self.runtime.set_topology(new_tree)
        for nid, ln in self.nodes.items():
            ln.nbrs = new_tree.neighbors(nid)
        return remap

    def _rename_node(self, old: int, new: int) -> None:
        """Rename node id ``old`` to ``new`` across all state tables."""
        ln = self.runtime.rename_node(old, new)
        self._live.discard(old)
        self._live.add(new)
        self._edges = {
            tuple(sorted((new if a == old else a, new if b == old else b)))
            for a, b in self._edges
        }
        for other in self.nodes.values():
            if other is not ln:
                other.rename_neighbor(old, new)

    # ------------------------------------------------------------- requests
    def execute(self, request: Request) -> Request:
        """Execute one request to quiescence (see AggregationSystem)."""
        if request.node not in self._live:
            raise ValueError(f"request targets retired node {request.node}")
        return super().execute(request)
