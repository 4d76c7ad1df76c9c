"""Exact competitive ratios via maximum-ratio-cycle games.

The paper proves RWW's 5/2 bound with a hand-built potential function and
*sketches* the matching lower bound (Theorem 3) with a fixed adversary
pattern.  This module goes further: it computes the **exact** competitive
ratio of any deterministic per-edge lease policy, over **all** adversarial
request sequences, by reduction to a maximum ratio cycle problem.

Reduction.  A per-edge policy is a finite deterministic automaton over the
token alphabet {R, W, N} with per-transition message costs (Figure 2).  The
offline comparator is the nondeterministic 2-state OPT automaton of
:mod:`repro.offline.edge_dp`.  For an infinite token sequence σ,

    ratio(σ) = limsup alg(σ) / opt(σ),   opt = offline minimum.

Because ``−λ · min_path(opt)`` equals ``max_path(−λ · opt)`` for λ ≥ 0, the
sup over σ of ratio(σ) equals the **maximum ratio cycle** of the product
graph whose nodes pair a policy state with an OPT state and whose edges
carry ``(alg_cost, opt_cost)`` — both players maximize.  Cycles with zero
OPT cost but positive policy cost witness an unbounded ratio (that is how
never-lease and always-lease fail).

The value is computed exactly (a :class:`fractions.Fraction`): a float
Lawler binary search brackets it, ``limit_denominator`` proposes the unique
candidate rational (cycle ratios have denominator at most 2·|V|), and exact
Bellman–Ford certificates confirm "no positive cycle at λ*" and "positive
cycle just below λ*".

Findings this enables (see the EXT-GAME benchmark):

* RWW's exact competitive ratio is **5/2** — Theorem 1's bound is tight
  against *every* adversary, not only ADV(1, 2).
* Every (a, b)-automaton has exact ratio ≥ 5/2 with equality only at
  (1, 2) — Theorem 3 verified exactly, closing the gap left by the
  proof-sketch adversary (which under-forces (2, 4); see EXPERIMENTS.md).
* TTL-lease automata and the always/never extremes have **unbounded**
  ratios — request-pattern-driven breaking is essential, not incidental.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.offline.edge_dp import TRANSITIONS, edge_dp_step
from repro.offline.projection import NOOP, READ, WRITE_TOKEN

TOKENS = (READ, WRITE_TOKEN, NOOP)

PolicyState = Hashable


@dataclass(frozen=True)
class PolicyAutomaton:
    """A deterministic per-edge policy automaton.

    Attributes
    ----------
    name:
        Label for reports.
    initial:
        Start state (the no-lease quiescent configuration).
    step:
        ``step(state, token) -> (next_state, message_cost)``.
    """

    name: str
    initial: PolicyState
    step: Callable[[PolicyState, str], Tuple[PolicyState, int]]

    def reachable_states(self) -> List[PolicyState]:
        seen: Set[PolicyState] = {self.initial}
        frontier = [self.initial]
        while frontier:
            s = frontier.pop()
            for tok in TOKENS:
                nxt, _ = self.step(s, tok)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return sorted(seen, key=repr)

    def run(self, tokens: Sequence[str]) -> int:
        """Total cost of processing ``tokens`` from the initial state."""
        state, total = self.initial, 0
        for tok in tokens:
            state, cost = self.step(state, tok)
            total += cost
        return total


# --------------------------------------------------------------- automata
def ab_automaton(a: int, b: int) -> PolicyAutomaton:
    """The (a, b)-algorithm's per-edge automaton.

    States: ``("U", cc)`` with combine-streak ``cc`` in 0..a-1 (no lease),
    or ``("L", lt)`` with lease timer ``lt`` in 1..b.  Mirrors
    :class:`repro.core.policies.ABPolicy` on one edge direction (noops —
    writes on the reader side — are invisible to the automaton, exactly as
    they generate no messages toward the granter in the mechanism).
    """
    if a < 1 or b < 1:
        raise ValueError(f"need a >= 1 and b >= 1, got a={a}, b={b}")

    def step(state, token):
        kind, counter = state
        if kind == "U":
            if token == READ:
                if counter + 1 >= a:
                    return ("L", b), 2
                return ("U", counter + 1), 2
            if token == WRITE_TOKEN:
                return ("U", 0), 0
            return state, 0  # NOOP invisible
        # Leased.
        if token == READ:
            return ("L", b), 0
        if token == WRITE_TOKEN:
            if counter - 1 <= 0:
                return ("U", 0), 2  # update + release
            return ("L", counter - 1), 1
        return state, 0  # NOOP invisible

    return PolicyAutomaton(name=f"({a},{b})", initial=("U", 0), step=step)


def rww_automaton() -> PolicyAutomaton:
    """RWW = the (1, 2)-automaton."""
    auto = ab_automaton(1, 2)
    return PolicyAutomaton(name="RWW", initial=auto.initial, step=auto.step)


def always_lease_automaton() -> PolicyAutomaton:
    """Grant on first combine, never break."""

    def step(state, token):
        if state == "U":
            if token == READ:
                return "L", 2
            return "U", 0
        if token == WRITE_TOKEN:
            return "L", 1
        return "L", 0

    return PolicyAutomaton(name="always-lease", initial="U", step=step)


def never_lease_automaton() -> PolicyAutomaton:
    """Never grant: every combine pays the pull."""

    def step(state, token):
        return "U", 2 if token == READ else 0

    return PolicyAutomaton(name="never-lease", initial="U", step=step)


def ttl_automaton(ttl: int) -> PolicyAutomaton:
    """Time-based lease: reads renew a ``ttl``-token lease; every token ages
    it; expiry is silent (cost 0) — :mod:`repro.baselines.timelease`."""
    if ttl < 1:
        raise ValueError(f"ttl must be >= 1, got {ttl}")

    def step(state, token):
        remaining = state
        if token == READ:
            return ttl, (0 if remaining > 0 else 2)
        cost = 1 if (token == WRITE_TOKEN and remaining > 0) else 0
        return max(remaining - 1, 0), cost

    return PolicyAutomaton(name=f"ttl[{ttl}]", initial=0, step=step)


# --------------------------------------------------------- product graph
#: Product edge: (src_node, dst_node, alg_cost, opt_cost, token).
ProductEdge = Tuple[int, int, int, int, str]


def build_product_graph(
    automaton: PolicyAutomaton,
) -> Tuple[List[Tuple[PolicyState, int]], List[ProductEdge]]:
    """Nodes (policy state × OPT state) reachable from the initial pair,
    and all (token, OPT-choice) edges between them."""
    initial = (automaton.initial, 0)
    index: Dict[Tuple[PolicyState, int], int] = {initial: 0}
    nodes: List[Tuple[PolicyState, int]] = [initial]
    edges: List[ProductEdge] = []
    frontier = [initial]
    while frontier:
        (p_state, o_state) = frontier.pop()
        src = index[(p_state, o_state)]
        for tok in TOKENS:
            p_next, alg_cost = automaton.step(p_state, tok)
            for o_next, opt_cost in TRANSITIONS[(o_state, tok)]:
                key = (p_next, o_next)
                if key not in index:
                    index[key] = len(nodes)
                    nodes.append(key)
                    frontier.append(key)
                edges.append((src, index[key], alg_cost, opt_cost, tok))
    return nodes, edges


# ------------------------------------------------------- cycle machinery
def _has_positive_cycle(
    n: int, edges: Sequence[Tuple[int, int, Fraction]]
) -> bool:
    """Bellman–Ford (longest-path form): any cycle with positive total
    weight reachable in the graph?  Exact arithmetic."""
    dist = [Fraction(0)] * n  # all nodes as sources simultaneously
    for _ in range(n):
        changed = False
        for u, v, w in edges:
            cand = dist[u] + w
            if cand > dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            return False
    # One more relaxation round: any further improvement = positive cycle.
    for u, v, w in edges:
        if dist[u] + w > dist[v]:
            return True
    return False


def _weighted(edges: Sequence[ProductEdge], lam: Fraction):
    return [(u, v, Fraction(alg) - lam * Fraction(opt)) for u, v, alg, opt, _ in edges]


def exact_competitive_ratio(
    automaton: PolicyAutomaton,
    max_denominator: Optional[int] = None,
) -> Optional[Fraction]:
    """The exact competitive ratio of ``automaton`` against offline OPT,
    over all adversarial token sequences.

    Returns a :class:`~fractions.Fraction`, or ``None`` when the ratio is
    unbounded (a zero-OPT-cost cycle with positive policy cost exists).
    """
    nodes, edges = build_product_graph(automaton)
    n = len(nodes)

    # Unbounded check: positive-alg cycle using only opt-cost-0 edges.
    free_edges = [(u, v, Fraction(alg)) for u, v, alg, opt, _ in edges if opt == 0]
    if _has_positive_cycle(n, free_edges):
        return None

    max_den = max_denominator if max_denominator is not None else 2 * n
    # Distinct cycle ratios with denominators <= max_den differ by more
    # than 1 / max_den^2; bracket to below half that gap.
    gap = Fraction(1, 2 * max_den * max_den)

    lo, hi = 0.0, float(sum(alg for _, _, alg, _, _ in edges)) + 1.0
    while hi - lo > float(gap) / 4:
        mid = (lo + hi) / 2
        if _has_positive_cycle(n, _weighted(edges, Fraction(mid).limit_denominator(10**12))):
            lo = mid
        else:
            hi = mid
    candidate = Fraction((lo + hi) / 2).limit_denominator(max_den)

    # Certify: no positive cycle at the candidate, but one strictly below.
    if _has_positive_cycle(n, _weighted(edges, candidate)):
        raise RuntimeError(
            f"certification failed above for {automaton.name}: λ={candidate}"
        )
    if candidate > 0 and not _has_positive_cycle(n, _weighted(edges, candidate - gap)):
        raise RuntimeError(
            f"certification failed below for {automaton.name}: λ={candidate}"
        )
    return candidate


def _orbit_cost(automaton: PolicyAutomaton, start: PolicyState, cycle: Sequence[str]):
    """(period_cost, period_length_in_cycles) of the orbit the automaton
    enters when the token cycle repeats forever, starting from ``start``."""
    seen: Dict[PolicyState, Tuple[int, int]] = {}
    state, total, k = start, 0, 0
    while state not in seen:
        seen[state] = (k, total)
        for tok in cycle:
            state, cost = automaton.step(state, tok)
            total += cost
        k += 1
    k0, total0 = seen[state]
    return total - total0, k - k0


def _opt_cyclic_cost(cycle: Sequence[str]) -> int:
    """OPT's asymptotic per-period cost on a repeated token cycle: the
    cheapest cyclic path in the 2-state automaton over one period."""
    from math import inf

    best = inf
    for start in (0, 1):
        # dp[s] = min cost from `start` after processing the period, ending
        # in state s; require returning to `start` for a cyclic path.
        dp = [inf, inf]
        dp[start] = 0.0
        for tok in cycle:
            dp = edge_dp_step(dp, tok)[0]
        best = min(best, dp[start])
    return int(best)


def best_response_cycle(
    automaton: PolicyAutomaton,
    max_length: int = 8,
) -> Tuple[Tuple[str, ...], Fraction]:
    """A brute-force witness: the best adversarial token *cycle* up to the
    given length, with its forced asymptotic ratio.  Exponential —
    test/diagnostic use only.

    For each candidate cycle the policy's cost is its worst periodic-orbit
    cost over all reachable start states (the adversary may use a transient
    prefix to steer the automaton there), and OPT's cost is its cheapest
    cyclic path over one period.  Returns ``Fraction(-1)`` as an unbounded
    sentinel when some cycle costs OPT nothing but the policy something.
    """
    from itertools import product as iproduct

    states = automaton.reachable_states()
    best_cycle: Tuple[str, ...] = ()
    best_ratio = Fraction(0)
    for length in range(1, max_length + 1):
        for cycle in iproduct(TOKENS, repeat=length):
            alg = max(
                Fraction(*_orbit_cost(automaton, s, cycle)) for s in states
            )
            opt = _opt_cyclic_cost(cycle)
            if opt == 0:
                if alg > 0:
                    return cycle, Fraction(-1)  # sentinel: unbounded
                continue
            ratio = alg / opt
            if ratio > best_ratio:
                best_ratio = ratio
                best_cycle = cycle
    return best_cycle, best_ratio
