"""Analytic performance model: expected steady-state cost under random load.

For a uniform workload (combine with probability ``r``, requester uniform
over nodes), each ordered edge sees an i.i.d. token stream whose
probabilities follow from the subtree sizes:

    P[R] = r · |subtree(v, u)| / n        (combine on the far side)
    P[W] = (1 − r) · |subtree(u, v)| / n  (write on the near side)
    P[N] = (1 − r) · |subtree(v, u)| / n  (write on the far side)

and with the remaining probability the request is a combine on the near
side — invisible to the edge.  A deterministic per-edge policy automaton
under i.i.d. tokens is a finite Markov chain, so its long-run expected
message cost per request is the stationary expectation — computable in
closed form with one linear solve per edge.

:func:`expected_cost_per_request` sums this over all ordered edges,
yielding an O(n·|states|³) analytic prediction of what the simulator
measures over thousands of requests.  The tests validate the prediction
against long simulations to within a few percent — a statistical
cross-check of both the model and the simulator, and a planning tool
(capacity estimates without simulation).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.analysis.games import PolicyAutomaton, rww_automaton
from repro.offline.projection import NOOP, READ, WRITE_TOKEN
from repro.tree.topology import Tree


def edge_token_probabilities(tree: Tree, u: int, v: int, read_ratio: float) -> Dict[str, float]:
    """P[R], P[W], P[N] for ordered edge (u, v) under a uniform workload
    with the given combine probability (the rest of the mass is the
    invisible near-side combine)."""
    if not (0.0 <= read_ratio <= 1.0):
        raise ValueError(f"read_ratio must be in [0, 1], got {read_ratio}")
    n = tree.n
    near = len(tree.subtree(u, v))
    far = n - near
    return {
        READ: read_ratio * far / n,
        WRITE_TOKEN: (1.0 - read_ratio) * near / n,
        NOOP: (1.0 - read_ratio) * far / n,
    }


def stationary_edge_cost(
    automaton: PolicyAutomaton, probs: Dict[str, float]
) -> float:
    """Long-run expected cost per *request* of the automaton under i.i.d.
    tokens with the given probabilities (mass missing from ``probs`` is a
    no-op stay): :func:`stationary_stochastic_cost` with one branch per
    step."""

    def step_dist(state, token):
        nxt, cost = automaton.step(state, token)
        return [(nxt, cost, 1.0)]

    return stationary_stochastic_cost(automaton.reachable_states(), step_dist, probs)


def expected_cost_per_request(
    tree: Tree,
    read_ratio: float,
    automaton: PolicyAutomaton = None,
) -> float:
    """Expected steady-state messages per request for the whole tree under
    a uniform workload (default automaton: RWW)."""
    auto = automaton if automaton is not None else rww_automaton()
    total = 0.0
    for u, v in tree.directed_edges():
        probs = edge_token_probabilities(tree, u, v, read_ratio)
        total += stationary_edge_cost(auto, probs)
    return total


def predict_total(
    tree: Tree,
    read_ratio: float,
    length: int,
    automaton: PolicyAutomaton = None,
) -> float:
    """Predicted total messages for a ``length``-request uniform workload
    (steady-state approximation; ignores the O(n) warm-up transient)."""
    return expected_cost_per_request(tree, read_ratio, automaton) * length


# ------------------------------------------------- stochastic policies
def random_break_chain(p: float):
    """The per-edge Markov kernel of
    :class:`~repro.core.randomized.RandomBreakPolicy`:
    ``step_dist(state, token) -> [(next_state, cost, probability), ...]``.

    Two states: ``"U"`` (no lease) and ``"L"`` (leased); a write under the
    lease breaks with probability ``p`` (update + release, cost 2) and is
    tolerated otherwise (update, cost 1).
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")

    def step_dist(state, token):
        if state == "U":
            if token == READ:
                return [("L", 2, 1.0)]
            return [("U", 0, 1.0)]
        if token == READ:
            return [("L", 0, 1.0)]
        if token == WRITE_TOKEN:
            return [("L", 1, 1.0 - p), ("U", 2, p)]
        return [("L", 0, 1.0)]

    return ["U", "L"], step_dist


def stationary_stochastic_cost(states, step_dist, probs: Dict[str, float]) -> float:
    """Long-run expected cost per request of a per-edge Markov policy over
    ``states`` under i.i.d. tokens with the given probabilities (mass
    missing from ``probs`` is a no-op stay): ``step_dist(state, token)``
    yields (next, cost, probability) branches."""
    index = {s: i for i, s in enumerate(states)}
    k = len(states)
    P = np.zeros((k, k))
    c = np.zeros(k)  # expected cost paid from each state per request
    stay = 1.0 - sum(probs.values())
    if stay < -1e-12:
        raise ValueError("token probabilities exceed 1")
    for s in states:
        i = index[s]
        P[i, i] += max(stay, 0.0)
        for tok, p_tok in probs.items():
            if p_tok <= 0:
                continue
            for nxt, cost, p_branch in step_dist(s, tok):
                P[i, index[nxt]] += p_tok * p_branch
                c[i] += p_tok * p_branch * cost
    # Stationary distribution: solve pi (P - I) = 0 with sum(pi) = 1.
    a = np.vstack([P.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    return float(pi @ c)


def expected_random_break_cost(tree: Tree, read_ratio: float, p: float) -> float:
    """Expected steady-state messages per request of the random-break
    policy over the whole tree, under the per-edge-independence
    approximation.

    Exact on the 2-node tree.  On larger trees it is an **upper bound**:
    the mechanism defers coin flips on relay edges (interior nodes forward
    updates without deciding) and a single head-of-chain break cascades
    down the whole lease chain, so real executions break *less often per
    edge* than independent per-edge coins would (measured: ~10–20% lower
    on a 5-node path).  Deterministic policies have no such coupling —
    every edge counts the same writes — which is why
    :func:`expected_cost_per_request` is near-exact for them.
    """
    states, step_dist = random_break_chain(p)
    total = 0.0
    for u, v in tree.directed_edges():
        probs = edge_token_probabilities(tree, u, v, read_ratio)
        total += stationary_stochastic_cost(states, step_dist, probs)
    return total
