"""Online cost accounting against the per-edge DP lower bound.

The paper's competitive statements compare an algorithm's message cost
``C_A(σ)`` to the optimal offline lease-based algorithm, computed as the
sum over ordered edges of a two-state DP (Figure 2 / Lemma 3.9 —
:func:`repro.offline.edge_dp.edge_dp_cost`).  The offline harness
(:func:`repro.analysis.competitive.competitive_ratio`) does this after the
fact over a complete recorded sequence; :class:`CostMeter` does it
**while the run is happening**.

Per ordered edge it holds the DP frontier ``[dp0, dp1]`` (minimal cost to
have processed the requests so far and end without/with the lease) and
advances it by one token per observed request with the offline oracle's
own step (:func:`~repro.offline.edge_dp.edge_dp_step`) — so at any prefix,
:meth:`CostMeter.opt_lower_bound` equals
:func:`~repro.offline.edge_dp.offline_lease_lower_bound` on that prefix
exactly (both are small-integer float sums; agreement is bit-for-bit, far
inside the 1e-9 the acceptance bar asks for).  The observed side is read
straight from the run's goodput ledger
(:class:`~repro.sim.stats.MessageStats`), giving

* a live competitive-ratio estimate (:meth:`ratio`, with the same
  zero-handling conventions as the offline ``RatioReport``), and
* per-ordered-edge **regret** — observed directional cost
  (:meth:`MessageStats.directional_cost`, the paper's ``C_A(σ, u, v)``)
  minus that edge's DP optimum — pinpointing *where* the algorithm
  overpays (:meth:`edge_regret`).

Scoped combines have no per-edge projection (Lemma 3.8 applies to global
combines only); the meter counts and skips them, flagging the estimate as
partial in its report.  The meter assumes a static topology — engines
disable it under dynamic membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.offline.edge_dp import edge_dp_step
from repro.offline.projection import NOOP, READ, WRITE_TOKEN
from repro.sim.stats import MessageStats
from repro.tree.topology import Tree
from repro.workloads.requests import COMBINE, WRITE, Request

__all__ = ["CostMeter", "CostReport"]

Edge = Tuple[int, int]


@dataclass
class CostReport:
    """Point-in-time summary of the meter (JSON-safe via :meth:`to_dict`).

    ``opt_lower_bound`` is the prefix OPT; ``ratio`` uses the offline
    harness's conventions (1.0 when both sides are zero, ``inf`` when only
    the bound is).  ``regret`` lists ordered edges by observed-minus-OPT
    overpayment, largest first.
    """

    observed: int
    opt_lower_bound: int
    ratio: float
    requests: int
    skipped_scoped: int
    regret: List[Tuple[Edge, int, int]] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        """True when scoped combines were skipped (bound covers a subset)."""
        return self.skipped_scoped > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "observed_messages": self.observed,
            "opt_lower_bound": self.opt_lower_bound,
            "competitive_ratio": self.ratio if self.ratio != inf else None,
            "requests": self.requests,
            "skipped_scoped": self.skipped_scoped,
            "partial": self.partial,
            "regret": [
                {"edge": [u, v], "observed": obs, "opt": opt, "regret": obs - opt}
                for (u, v), obs, opt in self.regret
            ],
        }


class CostMeter:
    """Streaming per-edge DP accountant for one run.

    Parameters
    ----------
    tree:
        The (static) aggregation tree; subtree membership per ordered edge
        is cached once, mirroring
        :func:`repro.offline.projection.project_all_edges`.
    stats:
        The run's goodput ledger — the same object the engines write, so
        the observed side needs no extra bookkeeping.
    """

    def __init__(self, tree: Tree, stats: MessageStats) -> None:
        self.tree = tree
        self.stats = stats
        self._sides: Dict[Edge, FrozenSet[int]] = {
            (u, v): frozenset(tree.subtree(u, v)) for u, v in tree.directed_edges()
        }
        # Two-state DP frontier per ordered edge: dp[s] = minimal cost of
        # any transition choice sequence ending in lease-state s.
        self._dp: Dict[Edge, List[float]] = {
            edge: [0.0, inf] for edge in self._sides
        }
        self.requests_seen = 0
        self.skipped_scoped = 0

    # ------------------------------------------------------------- streaming
    def observe(self, request: Request) -> None:
        """Fold one initiated request into every edge's DP frontier.

        Requests must be observed in initiation order — the DP is a prefix
        computation over ``σ``.  Scoped combines are counted but skipped
        (no per-edge projection exists for them).
        """
        if request.scope is not None:
            self.skipped_scoped += 1
            return
        dp = self._dp
        node = request.node
        if request.op == WRITE:
            for edge, side_u in self._sides.items():
                token = WRITE_TOKEN if node in side_u else NOOP
                dp[edge] = edge_dp_step(dp[edge], token)[0]
        elif request.op == COMBINE:
            for edge, side_u in self._sides.items():
                if node not in side_u:
                    dp[edge] = edge_dp_step(dp[edge], READ)[0]
        else:
            raise ValueError(f"cannot account op {request.op!r}")
        self.requests_seen += 1

    # --------------------------------------------------------------- queries
    def edge_opt(self, u: int, v: int) -> int:
        """The DP optimum for ordered edge ``(u, v)`` on the prefix so far."""
        dp = self._dp[(u, v)]
        best = min(dp)
        return int(best) if best != inf else 0

    def opt_lower_bound(self) -> int:
        """Σ per-ordered-edge optima — the prefix OPT comparator."""
        total = 0
        for dp in self._dp.values():
            best = min(dp)
            if best != inf:
                total += int(best)
        return total

    def observed_cost(self) -> int:
        """The run's goodput total so far (the paper's ``C_A(σ)``)."""
        return self.stats.total

    def ratio(self) -> float:
        """Live competitive-ratio estimate, offline-harness conventions:
        1.0 when both sides are zero, ``inf`` when only the bound is."""
        observed = self.observed_cost()
        bound = self.opt_lower_bound()
        if bound == 0:
            return 1.0 if observed == 0 else inf
        return observed / bound

    def edge_regret(self) -> List[Tuple[Edge, int, int]]:
        """Per ordered edge ``((u, v), observed, opt)``, sorted by regret
        (observed minus opt) descending, then by edge for determinism."""
        rows = []
        for (u, v) in self._sides:
            obs = self.stats.directional_cost(u, v)
            opt = self.edge_opt(u, v)
            rows.append(((u, v), obs, opt))
        rows.sort(key=lambda r: (-(r[1] - r[2]), r[0]))
        return rows

    def report(self, top_edges: Optional[int] = None) -> CostReport:
        """Snapshot everything into a :class:`CostReport` (``top_edges``
        truncates the regret list; default keeps every edge)."""
        regret = self.edge_regret()
        if top_edges is not None:
            regret = regret[:top_edges]
        return CostReport(
            observed=self.observed_cost(),
            opt_lower_bound=self.opt_lower_bound(),
            ratio=self.ratio(),
            requests=self.requests_seen,
            skipped_scoped=self.skipped_scoped,
            regret=regret,
        )
