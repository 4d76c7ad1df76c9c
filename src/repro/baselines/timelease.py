"""Time-based lease baseline (Gray & Cheriton style).

Classic TTL leases differ from the paper's message-released leases in two
ways: they are renewed by reads and they expire *silently* — no release
message.  Expressed in the per-ordered-edge accounting:

* A combine in ``σ(u, v)`` with no live lease costs 2 (probe/response) and
  installs a lease with ``ttl`` remaining tokens; with a live lease it
  costs 0 and renews the TTL.
* A write in ``σ(u, v)`` under a live lease costs 1 (update); with no lease
  it costs 0.
* Every request of ``σ(u, v)`` (including noops) ages the lease by one; at
  zero it lapses for free.

This is the "time-based leases" design point cited in the related work
([13], [10]); the MOTIV benchmark compares it against RWW's
request-pattern-driven breaking.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.analysis.games import ttl_automaton
from repro.baselines.base import BaselineResult
from repro.offline.projection import project_all_edges
from repro.ops.monoid import AggregationOperator
from repro.ops.standard import SUM
from repro.tree.topology import Tree
from repro.workloads.requests import COMBINE, WRITE, Request


def time_lease_edge_cost(tokens: Sequence[str], ttl: int) -> int:
    """Message cost of TTL leasing on one ordered edge's token stream.

    Runs :func:`~repro.analysis.games.ttl_automaton`, the per-edge law
    stated above: a lease renewed by the read at index ``i`` survives
    through index ``i + ttl`` inclusive (every token, noops included, ages
    it by one) and lapses silently.
    """
    return ttl_automaton(ttl).run(tokens)


class TimeLeaseBaseline:
    """TTL-lease aggregation over a tree.

    Parameters
    ----------
    tree:
        The aggregation tree.
    ttl:
        Lease lifetime in per-edge request tokens.
    op:
        Aggregation operator for combine retvals.
    """

    def __init__(self, tree: Tree, ttl: int, op: AggregationOperator = SUM) -> None:
        if ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {ttl}")
        self.tree = tree
        self.ttl = ttl
        self.op = op
        self.name = f"timelease[{ttl}]"

    def run(self, sequence: Sequence[Request]) -> BaselineResult:
        """Execute a sequence: per-edge TTL accounting + exact answers."""
        projections = project_all_edges(self.tree, list(sequence))
        total = sum(time_lease_edge_cost(toks, self.ttl) for toks in projections.values())
        latest: Dict[int, Any] = {}
        executed: List[Request] = []
        for q in sequence:
            if q.op == WRITE:
                latest[q.node] = q.arg
            elif q.op == COMBINE:
                acc = self.op.identity
                for node in self.tree.nodes():
                    if node in latest:
                        acc = self.op.combine(acc, self.op.lift(latest[node]))
                q.retval = acc
            executed.append(q)
        # Per-request attribution is not well defined across edges for TTL
        # leases; report the total only.
        return BaselineResult(
            total_messages=total,
            per_request=[],
            requests=executed,
        )
