"""Small-scope stateless model checking of the lease protocol.

The engines execute *one* schedule per run; :class:`Explorer` executes **all
of them**: every interleaving of message deliveries and request initiations
that the network model permits (per-edge FIFO, arbitrary cross-edge order)
for a bounded request script on a small tree.  At every reachable state it
asserts the properties the paper proves, so a bug that only appears under
one adversarial schedule — the kind random simulation can miss forever — is
found by exhaustion:

* **quiescent-state lemmas** — whenever no message is in flight, Lemma 3.1
  (taken/granted symmetry), Lemma 3.2 (a grant implies taken elsewhere) and
  Lemma 3.4 (no open probe rounds) must hold
  (:func:`repro.core.runtime.check_quiescent_invariants`);
* **no lost quiescence / deadlock** — a node with an open probe round while
  nothing is in flight can never complete: reported as ``deadlock``;
* **completion** — every request of the script has completed at every
  terminal state;
* **causal consistency** (Theorem 4) — at terminal states, via the
  Section-5 ghost write-logs (:func:`repro.consistency.causal.
  check_causal_consistency`);
* **strict consistency** — on *serial* schedules (every request initiated
  at full quiescence), results must equal the sequential-specification
  values (:func:`repro.consistency.strict.check_strict_consistency`).

Scripts may also schedule **crash/recover transitions** (``kN`` / ``rN``):
a crash black-holes the node's wire and loses its volatile state (open
requests die and are excluded from the oracles, mirroring the engines'
fast-fail behavior), a recover reopens the wire and runs the
lease-reconciliation round.  While any node is down the quiescent-state
lemmas and the deadlock rule are suspended (a down node legitimately breaks
symmetry); they re-arm the moment the last node recovers, so a recovery
path that leaves stale leases behind — the classic stale-lease mutant — is
caught as a lemma, causal or deadlock violation with a replayable schedule.

Small-scope caveat (documented in DESIGN.md): exhaustiveness is relative to
the bounded scope — the synchronous reliable network, trees of a few nodes
and scripts of a few operations.  Per the small-scope hypothesis most
protocol bugs already manifest there (the seeded-mutation tests demonstrate
it), but the explorer proves nothing about larger instances.

State-space techniques:

* **canonical state hashing** — :meth:`NodeRuntime.state_snapshot` plus the
  script position, per-request results and the serial flag form a hashable
  key; a state reached twice is expanded once (per sleep-set rule below).
* **sleep-set partial-order reduction** (Godefroid) — two *deliveries* to
  distinct nodes commute exactly (disjoint node mutations; disjoint edge
  queues — see :meth:`SynchronousNetwork.pending_snapshot`), so exploring
  both orders is redundant.  After exploring action ``a`` at a state, ``a``
  enters the *sleep set* of the remaining branches and is skipped in any
  successor until a dependent action wakes it.  Request initiations are
  treated as dependent on everything (they flip the schedule's serial
  flag, which is part of the checked semantics, so they must not commute
  away).  Sleep sets prune *transitions only* — every reachable state is
  still visited, so the per-state invariant checks remain exhaustive.  A
  previously visited state is re-expanded only when the recorded sleep
  sets do not subsume the current one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.consistency.causal import check_causal_consistency
from repro.consistency.strict import check_strict_consistency
from repro.core.mechanism import LeaseNode
from repro.core.runtime import NodeRuntime, PolicyFactory
from repro.core.policies import RWWPolicy
from repro.ops.monoid import AggregationOperator
from repro.ops.standard import SUM
from repro.sim.transport import TransportConfig
from repro.tree.topology import Tree
from repro.util.canon import canonical_value
from repro.workloads.requests import COMBINE, WRITE, Request, combine, write

__all__ = [
    "OpSpec",
    "Violation",
    "ExploreResult",
    "Explorer",
    "parse_script",
    "default_script",
]

#: An explorer action: ("deliver", src, dst) or ("op", script_index).
Action = Tuple[Any, ...]

#: OpSpec kinds beyond WRITE/COMBINE: scheduled crash/recover transitions.
CRASH = "crash"
RECOVER = "recover"


@dataclass(frozen=True)
class OpSpec:
    """One scripted operation: a write of ``arg``, a combine at ``node``,
    or a crash/recover fault transition at ``node``."""

    kind: str  # WRITE, COMBINE, CRASH or RECOVER
    node: int
    arg: Optional[float] = None

    def __str__(self) -> str:
        if self.kind == WRITE:
            return f"w{self.node}={self.arg:g}"
        if self.kind == CRASH:
            return f"k{self.node}"
        if self.kind == RECOVER:
            return f"r{self.node}"
        return f"c{self.node}"


def parse_script(text: str) -> List[OpSpec]:
    """Parse the CLI script DSL: ``"w0=1,c2,k0,r0,w2=5,c0"``.

    ``wN=X`` writes value ``X`` at node ``N``; ``cN`` combines at node
    ``N``; ``kN`` kills (crashes) node ``N``; ``rN`` recovers it.
    Whitespace around commas is ignored.
    """
    ops: List[OpSpec] = []
    for chunk in text.split(","):
        tok = chunk.strip()
        if not tok:
            continue
        try:
            if tok.startswith("w"):
                lhs, rhs = tok[1:].split("=", 1)
                ops.append(OpSpec(WRITE, int(lhs), float(rhs)))
            elif tok.startswith("c"):
                ops.append(OpSpec(COMBINE, int(tok[1:])))
            elif tok.startswith("k"):
                ops.append(OpSpec(CRASH, int(tok[1:])))
            elif tok.startswith("r"):
                ops.append(OpSpec(RECOVER, int(tok[1:])))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad script token {tok!r}: expected wN=X, cN, kN or rN"
            ) from None
    return ops


def default_script(n_nodes: int, max_ops: int) -> List[OpSpec]:
    """A deterministic script mixing writes and combines across the tree.

    Alternates writes (distinct values, rotating nodes) with combines at
    other nodes, so every prefix already exercises update propagation and
    lease hand-off.
    """
    ops: List[OpSpec] = []
    for i in range(max_ops):
        if i % 2 == 0:
            ops.append(OpSpec(WRITE, i % n_nodes, float(i + 1)))
        else:
            ops.append(OpSpec(COMBINE, (i + n_nodes // 2) % n_nodes))
    return ops


@dataclass(frozen=True)
class Violation:
    """One property violation, with the schedule that reaches it."""

    kind: str  # deadlock | lemma | causal | strict | completion
    message: str
    schedule: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "schedule": list(self.schedule),
        }


@dataclass
class ExploreResult:
    """Exploration statistics and every violation found."""

    states: int = 0
    transitions: int = 0
    slept: int = 0
    revisits: int = 0
    terminals: int = 0
    serial_terminals: int = 0
    truncated: bool = False
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    @property
    def reduction_ratio(self) -> float:
        """Fraction of candidate transitions pruned by sleep sets."""
        total = self.transitions + self.slept
        return self.slept / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "slept": self.slept,
            "revisits": self.revisits,
            "terminals": self.terminals,
            "serial_terminals": self.serial_terminals,
            "reduction_ratio": round(self.reduction_ratio, 4),
            "truncated": self.truncated,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


def _noop_complete(request: Request) -> None:
    """Combine-completion callback for explored worlds.

    Deliberately stateless: completion is read back from ``request.index``
    (set by ``_finish_combine`` before the callback fires), which keeps
    every world deep-copyable without sharing mutable state across
    branches.
    """


class _World:
    """One point of the schedule tree: a forked runtime plus script cursor."""

    def __init__(self, runtime: NodeRuntime, script: List[OpSpec]) -> None:
        self.runtime = runtime
        self.script = script
        self.pos = 0
        self.requests: List[Request] = []
        self.serial = True
        self.path: List[str] = []

    def fork(self) -> "_World":
        # One deepcopy per transition: runtime and requests share the memo,
        # so waiter tuples inside nodes keep pointing at the clone's
        # request objects.
        clone: "_World" = copy.deepcopy(self)
        return clone

    # ------------------------------------------------------------- actions
    def enabled_actions(self) -> List[Action]:
        actions: List[Action] = [
            ("deliver", src, dst) for src, dst in self.runtime.network.pending_edges()
        ]
        if self.pos < len(self.script):
            actions.append(("op", self.pos))
        return actions

    def fully_quiescent(self) -> bool:
        return self.runtime.is_quiescent() and not any(
            node.has_pending() for node in self.runtime.nodes.values()
        )

    def apply(self, action: Action) -> None:
        if action[0] == "deliver":
            _, src, dst = action
            self.path.append(f"deliver {src}->{dst}")
            self.runtime.network.deliver_next(src, dst)
            return
        spec = self.script[self.pos]
        self.path.append(f"op {spec}")
        if not self.fully_quiescent():
            self.serial = False
        self.pos += 1
        if spec.kind == CRASH:
            # A fault transition is never serial: it tears state mid-flight.
            self.serial = False
            for q in self.runtime.crash(spec.node):
                q.failed = True
            return
        if spec.kind == RECOVER:
            self.serial = False
            self.runtime.recover(spec.node)
            return
        if spec.node in self.runtime.crashed:
            # The engines fast-fail initiations at a down node; mirror that.
            request = write(spec.node, spec.arg) if spec.kind == WRITE else combine(
                spec.node
            )
            request.failed = True
            self.requests.append(request)
            return
        if spec.kind == WRITE:
            request = write(spec.node, spec.arg)
            self.requests.append(request)
            self.runtime.submit_write(request)
        else:
            request = combine(spec.node)
            self.requests.append(request)
            self.runtime.submit_combine(request, _noop_complete)

    # --------------------------------------------------------------- state
    def state_key(self) -> Tuple[Any, ...]:
        return (
            self.runtime.state_snapshot(),
            self.pos,
            tuple(
                (r.index, canonical_value(r.retval), r.failed)
                for r in self.requests
            ),
            self.serial,
        )


class Explorer:
    """Exhaustive DFS over delivery/initiation interleavings (see module doc).

    Parameters
    ----------
    tree:
        The (small) aggregation tree.
    script:
        The bounded request script, initiated in order at arbitrary points
        of the schedule.
    op:
        Aggregation operator (default SUM; consistency oracles assume an
        abelian-group operator).
    policy_factory / node_cls:
        Forwarded to :class:`NodeRuntime`; ``node_cls`` is the mutation-
        testing hook — pass a deliberately broken :class:`LeaseNode`
        subclass and the explorer reports the schedule exposing it.
    max_states:
        Safety valve; exceeding it sets ``truncated`` (the run is then NOT
        a proof of the scope).
    max_violations:
        Stop collecting after this many violations.
    independence:
        Where the POR independence relation comes from.  ``"derived"``
        (default) takes it from the static effect analysis
        (:func:`repro.verify.effects.derived_independence`): the premise
        that every handler effect is node-local is *checked against the
        extracted reaction graph*, and if it fails the relation soundly
        degrades to full dependence (no reduction, still exhaustive).
        ``"hand"`` keeps the original hand-coded relation — retained for
        the equivalence tests that pin derived == hand on the golden
        scopes.
    """

    INDEPENDENCE_MODES = ("derived", "hand")

    def __init__(
        self,
        tree: Tree,
        script: List[OpSpec],
        *,
        op: AggregationOperator = SUM,
        policy_factory: PolicyFactory = RWWPolicy,
        node_cls: type = LeaseNode,
        max_states: int = 500_000,
        max_violations: int = 10,
        independence: str = "derived",
    ) -> None:
        for spec in script:
            if not (0 <= spec.node < tree.n):
                raise ValueError(f"script op {spec} targets a node outside the tree")
        if independence not in self.INDEPENDENCE_MODES:
            raise ValueError(
                f"unknown independence mode {independence!r}; "
                f"expected one of {self.INDEPENDENCE_MODES}"
            )
        self.tree = tree
        self.script = script
        self.op = op
        self.policy_factory = policy_factory
        self.node_cls = node_cls
        self.max_states = max_states
        self.max_violations = max_violations
        self.independence = independence
        if independence == "derived":
            from repro.verify.effects import derived_independence

            self._indep: Callable[[Action, Action], bool] = (
                derived_independence().independent
            )
        else:
            self._indep = self._independent

    # ----------------------------------------------------------- independence
    @staticmethod
    def _independent(a: Action, b: Action) -> bool:
        """The original hand-coded relation: deliveries to distinct nodes
        commute exactly; everything involving a request initiation is
        treated as dependent (the serial flag is schedule-order
        sensitive).  The derived relation (see ``independence``) must
        prove the same — the equivalence tests compare the two."""
        return a[0] == "deliver" and b[0] == "deliver" and a[2] != b[2]

    # ------------------------------------------------------------------ checks
    def _check_state(self, world: _World, result: ExploreResult) -> None:
        if world.runtime.crashed:
            # Quiescent-state lemmas and the deadlock rule are only defined
            # with every node up: a down node legitimately breaks symmetry
            # and can legitimately wedge a neighbor's round until recovery.
            return
        if not world.runtime.is_quiescent():
            return
        stuck = sorted(
            i for i, node in world.runtime.nodes.items() if node.has_pending()
        )
        if stuck:
            result.violations.append(
                Violation(
                    kind="deadlock",
                    message=(
                        f"nothing in flight but node(s) {stuck} have open "
                        "probe rounds that can never complete"
                    ),
                    schedule=tuple(world.path),
                )
            )
            return
        try:
            world.runtime.check_quiescent_invariants()
        except AssertionError as exc:
            result.violations.append(
                Violation(kind="lemma", message=str(exc), schedule=tuple(world.path))
            )

    def _check_terminal(self, world: _World, result: ExploreResult) -> None:
        result.terminals += 1
        if world.runtime.crashed:
            # A script that ends with a node still down has no meaningful
            # terminal semantics (its requests may be legitimately wedged);
            # count the terminal but assert nothing.
            return
        incomplete = [
            str(self.script[i])
            for i, r in enumerate(world.requests)
            if r.index < 0 and not r.failed
        ]
        if incomplete:
            result.violations.append(
                Violation(
                    kind="completion",
                    message=f"request(s) {incomplete} never completed",
                    schedule=tuple(world.path),
                )
            )
            return
        ghost_logs = {
            i: node.ghost
            for i, node in world.runtime.nodes.items()
            if node.ghost is not None
        }
        live = [r for r in world.requests if not r.failed]
        for v in check_causal_consistency(
            ghost_logs, live, self.tree.n, op=self.op
        ):
            result.violations.append(
                Violation(kind="causal", message=str(v), schedule=tuple(world.path))
            )
        if world.serial:
            result.serial_terminals += 1
            for v in check_strict_consistency(
                world.requests, self.tree.n, op=self.op, tree=self.tree
            ):
                result.violations.append(
                    Violation(kind="strict", message=str(v), schedule=tuple(world.path))
                )

    # --------------------------------------------------------------------- run
    def run(self) -> ExploreResult:
        result = ExploreResult()
        runtime = NodeRuntime(
            self.tree,
            op=self.op,
            policy_factory=self.policy_factory,
            transport=TransportConfig(),  # synchronous: the model being checked
            ghost=True,
            node_cls=self.node_cls,
        )
        root = _World(runtime, self.script)
        visited: Dict[Tuple[Any, ...], List[FrozenSet[Action]]] = {}

        def dfs(world: _World, sleep: FrozenSet[Action]) -> None:
            if result.truncated or len(result.violations) >= self.max_violations:
                return
            key = world.state_key()
            recorded = visited.get(key)
            if recorded is not None:
                result.revisits += 1
                if any(prev <= sleep for prev in recorded):
                    return  # an earlier visit explored a superset of branches
            visited.setdefault(key, []).append(sleep)
            if recorded is None:
                # Distinct state: count it and run the per-state checks
                # (re-expansions revisit a state only to widen coverage of
                # its outgoing transitions).
                result.states += 1
                if result.states > self.max_states:
                    result.truncated = True
                    return
                self._check_state(world, result)
            actions = world.enabled_actions()
            if not actions:
                if recorded is None:
                    self._check_terminal(world, result)
                return
            explored: List[Action] = []
            for action in actions:
                if action in sleep:
                    result.slept += 1
                    continue
                child = world.fork()
                child.apply(action)
                result.transitions += 1
                child_sleep = frozenset(
                    b
                    for b in list(sleep) + explored
                    if self._indep(action, b)
                )
                dfs(child, child_sleep)
                explored.append(action)

        dfs(root, frozenset())
        return result
