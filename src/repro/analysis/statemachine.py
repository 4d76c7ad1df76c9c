"""Figure 4's product state machine, derived from the Figure-2 cost table.

A state ``S(x, y)`` pairs OPT's lease state ``x ∈ {0, 1}`` with RWW's
configuration ``y ∈ {0, 1, 2}`` (``F_RWW``: 0 = no lease / two writes ago,
1 = lease with one write against it, 2 = fresh lease).  For each request
token (R = combine in ``σ(u, v)``, W = write in ``σ(u, v)``, N = noop /
write in ``σ(v, u)``) RWW moves deterministically while OPT chooses among
the Figure-2 transitions — drawn as nondeterministic arrows in the paper's
figure.

:data:`PAPER_CONSTRAINT_ROWS` transcribes Figure 5's 21 inequality rows so
tests can assert our generated machine reproduces them exactly (the paper
omits the six trivially-satisfied ``0 ≤ 0`` self-loops and merges the two
identical (0,0) rows; we generate all transitions and normalize).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.offline.edge_dp import TRANSITIONS, rww_step
from repro.offline.projection import NOOP, READ, WRITE_TOKEN

#: (x, y): OPT lease state × RWW configuration.
State = Tuple[int, int]

TOKENS = (READ, WRITE_TOKEN, NOOP)


@dataclass(frozen=True)
class Transition:
    """One product transition.

    Attributes
    ----------
    src, dst:
        Product states before/after executing the token.
    token:
        R, W, or N.
    rww_cost:
        RWW's messages for this request on this edge (Figure 2).
    opt_cost:
        OPT's messages under the chosen OPT transition.
    """

    src: State
    dst: State
    token: str
    rww_cost: int
    opt_cost: int


def opt_choices(x: int, token: str) -> List[Tuple[int, int]]:
    """OPT's allowed ``(new_x, cost)`` choices — the Figure-2 rows."""
    return list(TRANSITIONS[(x, token)])


def product_transitions() -> List[Transition]:
    """Every transition of the Figure-4 product machine (27 in total:
    21 non-trivial + 6 zero-cost self-loops the paper's figure omits)."""
    out: List[Transition] = []
    for x in (0, 1):
        for y in (0, 1, 2):
            for token in TOKENS:
                y2, rww_cost = rww_step(y, token)
                for x2, opt_cost in opt_choices(x, token):
                    out.append(
                        Transition(
                            src=(x, y),
                            dst=(x2, y2),
                            token=token,
                            rww_cost=rww_cost,
                            opt_cost=opt_cost,
                        )
                    )
    return out


def reachable_states(initial: State = (0, 0)) -> Set[State]:
    """States reachable from the initial quiescent configuration."""
    trans = product_transitions()
    seen: Set[State] = {initial}
    frontier = [initial]
    while frontier:
        s = frontier.pop()
        for t in trans:
            if t.src == s and t.dst not in seen:
                seen.add(t.dst)
                frontier.append(t.dst)
    return seen


def nontrivial_transitions() -> List[Transition]:
    """Transitions that yield a non-vacuous LP row (drop zero-cost
    self-loops, which give ``0 ≤ 0``), deduplicated."""
    rows: List[Transition] = []
    seen: Set[Tuple] = set()
    for t in product_transitions():
        if t.src == t.dst and t.rww_cost == 0 and t.opt_cost == 0:
            continue
        key = (t.src, t.dst, t.rww_cost, t.opt_cost)
        if key in seen:
            continue
        seen.add(key)
        rows.append(t)
    return rows


#: Figure 5 verbatim: rows (dst_state, src_state, rww_cost, opt_cost)
#: meaning  Φ(dst) − Φ(src) + rww_cost ≤ opt_cost · c.
PAPER_CONSTRAINT_ROWS: List[Tuple[State, State, int, int]] = [
    ((0, 2), (0, 0), 2, 2),
    ((1, 2), (0, 0), 2, 2),
    ((0, 0), (0, 0), 0, 0),
    ((1, 2), (1, 0), 2, 0),
    ((0, 0), (1, 0), 0, 2),
    ((1, 0), (1, 0), 0, 1),
    ((0, 0), (1, 0), 0, 1),
    ((0, 2), (0, 2), 0, 2),
    ((1, 2), (0, 2), 0, 2),
    ((0, 1), (0, 2), 1, 0),
    ((1, 2), (1, 2), 0, 0),
    ((0, 1), (1, 2), 1, 2),
    ((1, 1), (1, 2), 1, 1),
    ((0, 2), (1, 2), 0, 1),
    ((0, 2), (0, 1), 0, 2),
    ((1, 2), (0, 1), 0, 2),
    ((0, 0), (0, 1), 2, 0),
    ((1, 2), (1, 1), 0, 0),
    ((0, 0), (1, 1), 2, 2),
    ((1, 0), (1, 1), 2, 1),
    ((0, 1), (1, 1), 0, 1),
]


def generated_constraint_rows() -> List[Tuple[State, State, int, int]]:
    """Our machine's non-trivial rows in the paper's (dst, src, rww, opt)
    format, deduplicated.

    Figure 5's cosmetic choices differ slightly (it keeps two trivially
    satisfied ``0 ≤ 0`` self-loop rows and merges the identical (0,0) W and
    N rows); tests compare both sides after dropping trivial self-loops.
    """
    rows: Set[Tuple[State, State, int, int]] = set()
    for t in nontrivial_transitions():
        rows.add((t.dst, t.src, t.rww_cost, t.opt_cost))
    return sorted(rows)
