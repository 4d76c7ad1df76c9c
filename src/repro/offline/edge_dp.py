"""Optimal offline lease schedules per ordered edge (the paper's OPT).

Figure 2 gives, for one ordered pair ``(u, v)``, the exact message cost any
lease-based algorithm pays per request of ``σ(u, v)`` as a function of
whether ``u.granted[v]`` holds before and after the request:

====================  ===========================  ====
state before          request / state after        cost
====================  ===========================  ====
false                 R → false or true            2
false                 W or N → false               0
true                  R → true                     0
true                  W → false                    2
true                  W → true                     1
true                  N → false                    1
true                  N → true                     0
====================  ===========================  ====

An offline lease-based algorithm chooses the transitions; the cheapest
choice sequence is a two-state shortest path, computed here by
:func:`edge_dp_cost` in O(len) time, one :func:`edge_dp_step` per token.
By the cost decomposition (Lemma 3.9) summing the per-edge optima over
all ordered edges lower-bounds every lease-based algorithm — and it is
exactly the comparator the paper's potential-function proof (Figure 4/5)
measures RWW against.

:func:`brute_force_edge_cost` enumerates all ``2^len`` transition choices as
a test oracle.  :func:`rww_step` is RWW's deterministic configuration step
(the ``F_RWW`` definition before Lemma 4.4): :func:`rww_edge_cost` folds it
over a stream for analytic cross-checks against the simulator, and the
Figure-4 product machine (:mod:`repro.analysis.statemachine`) pairs it with
:data:`TRANSITIONS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import inf
from typing import Dict, List, Sequence, Tuple

from repro.offline.projection import NOOP, READ, WRITE_TOKEN, Token, project_all_edges
from repro.tree.topology import Tree
from repro.workloads.requests import Request

#: (state_before, token) -> list of (state_after, cost) choices (Figure 2).
TRANSITIONS: Dict[Tuple[int, str], List[Tuple[int, int]]] = {
    (0, READ): [(0, 2), (1, 2)],
    (0, WRITE_TOKEN): [(0, 0)],
    (0, NOOP): [(0, 0)],
    (1, READ): [(1, 0)],
    (1, WRITE_TOKEN): [(1, 1), (0, 2)],
    (1, NOOP): [(1, 0), (0, 1)],
}


def rww_step(y: int, token: Token) -> Tuple[int, int]:
    """RWW's configuration step on one edge: ``(new_y, cost)``.

    ``y`` is ``F_RWW``: 0 = no lease, 1 = lease with one write against it,
    2 = fresh lease.

    * R: pay 2 when no lease (config 0), else 0; config becomes 2.
    * W: config 2 -> 1 for cost 1 (update); config 1 -> 0 for cost 2
      (update + release); config 0 stays free.
    * N: no cost, no config change (Lemma 4.1).
    """
    if token == READ:
        return 2, (2 if y == 0 else 0)
    if token == WRITE_TOKEN:
        if y == 2:
            return 1, 1
        if y == 1:
            return 0, 2
        return 0, 0
    if token == NOOP:
        return y, 0
    raise ValueError(f"unknown token {token!r}")


@dataclass(frozen=True)
class EdgeDPResult:
    """Outcome of the per-edge DP.

    Attributes
    ----------
    cost:
        Minimal total cost over all lease schedules.
    schedule:
        One optimal state sequence (lease held after each token),
        ``len(tokens)`` entries; useful for diagnostics.
    """

    cost: int
    schedule: Tuple[int, ...]


def edge_dp_step(dp: Sequence[float], token: Token) -> Tuple[List[float], List[int]]:
    """One min-plus step of the Figure-2 DP over :data:`TRANSITIONS`.

    ``dp[s]`` is the minimal cost of a transition-choice sequence ending
    in lease state ``s`` (``inf``: unreachable).  Returns the frontier
    after ``token`` and, per state, the state it was reached from (``-1``
    when unreachable); ties keep the lower predecessor.
    """
    ndp = [inf, inf]
    pred = [-1, -1]
    for s in (0, 1):
        cur = dp[s]
        if cur == inf:
            continue
        for s2, cost in TRANSITIONS[(s, token)]:
            cand = cur + cost
            if cand < ndp[s2]:
                ndp[s2] = cand
                pred[s2] = s
    return ndp, pred


def edge_dp_cost(tokens: Sequence[Token]) -> EdgeDPResult:
    """Minimal offline lease cost for one ordered edge's token stream.

    Standard two-state DP (:func:`edge_dp_step`) with backpointers; the
    initial state is 0 (no lease — Figure 1's initialization).
    """
    dp = [0.0, inf]  # dp[state] = min cost so far
    back: List[Tuple[int, int]] = []  # back[i] = (pred_of_state0, pred_of_state1)
    for tok in tokens:
        dp, pred = edge_dp_step(dp, tok)
        back.append((pred[0], pred[1]))
    final = 0 if dp[0] <= dp[1] else 1
    total = dp[final]
    # Reconstruct one optimal schedule.
    states: List[int] = []
    s = final
    for i in range(len(tokens) - 1, -1, -1):
        states.append(s)
        s = back[i][s]
    states.reverse()
    return EdgeDPResult(cost=int(total), schedule=tuple(states))


def brute_force_edge_cost(tokens: Sequence[Token]) -> int:
    """Test oracle: exhaustively try every transition-choice sequence.

    Exponential — intended for token streams of length <= ~16.
    """
    if len(tokens) > 20:
        raise ValueError("brute force is exponential; use edge_dp_cost for long streams")
    best = inf
    # Choice index per position: at most 2 options per transition.
    option_counts = []
    # The reachable option count depends on the running state, so enumerate
    # full binary choice vectors and skip invalid indices.
    for choices in product((0, 1), repeat=len(tokens)):
        state, total = 0, 0
        ok = True
        for tok, pick in zip(tokens, choices):
            options = TRANSITIONS[(state, tok)]
            if pick >= len(options):
                ok = False
                break
            state, cost = options[pick]
            total += cost
        if ok and total < best:
            best = total
    return int(best)


def rww_edge_cost(tokens: Sequence[Token]) -> int:
    """Replay RWW's configuration over one edge's token stream analytically
    (:func:`rww_step` from the initial config 0)."""
    config, total = 0, 0
    for tok in tokens:
        config, cost = rww_step(config, tok)
        total += cost
    return total


def offline_lease_lower_bound(tree: Tree, sequence: Sequence[Request]) -> int:
    """``Σ over ordered edges of edge_dp_cost`` — the OPT comparator.

    By Lemma 3.9 any lease-based algorithm's total cost is the sum of its
    per-ordered-edge costs; each term is at least the per-edge optimum, so
    this sum lower-bounds the optimal offline lease-based algorithm.
    """
    projections = project_all_edges(tree, sequence)
    return sum(edge_dp_cost(toks).cost for toks in projections.values())


def rww_analytic_cost(tree: Tree, sequence: Sequence[Request]) -> int:
    """``Σ over ordered edges of rww_edge_cost`` — RWW's total cost,
    predicted without running the simulator (Lemma 4.5 + Lemma 3.9)."""
    projections = project_all_edges(tree, sequence)
    return sum(rww_edge_cost(toks) for toks in projections.values())
