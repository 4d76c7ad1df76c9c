"""Potential-function verification.

Two views of the same amortized argument:

* :func:`verify_potential_on_machine` — symbolic: check
  ``Φ(dst) − Φ(src) + rww ≤ c · opt`` on **every** product transition.
* :func:`verify_potential_on_tokens` — empirical: replay one edge's token
  stream, tracking RWW's configuration and an optimal OPT schedule (from
  the per-edge DP), and check the same inequality per executed request,
  plus the telescoping conclusion
  ``C_RWW ≤ c · C_OPT + Φ(initial) − Φ(final) ≤ c · C_OPT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.statemachine import State, product_transitions
from repro.offline.edge_dp import TRANSITIONS, edge_dp_cost, rww_step
from repro.offline.projection import Token


@dataclass(frozen=True)
class PotentialViolation:
    """One transition breaking the amortized inequality."""

    src: State
    dst: State
    token: str
    rww_cost: int
    opt_cost: int
    slack: float  # positive = violated amount

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.src} --{self.token}--> {self.dst}: "
            f"ΔΦ + {self.rww_cost} exceeds c·{self.opt_cost} by {self.slack:.6g}"
        )


def verify_potential_on_machine(
    potentials: Dict[State, float],
    c: float,
    tol: float = 1e-9,
) -> List[PotentialViolation]:
    """Check the amortized inequality on all product transitions."""
    out: List[PotentialViolation] = []
    for t in product_transitions():
        lhs = potentials[t.dst] - potentials[t.src] + t.rww_cost
        rhs = c * t.opt_cost
        if lhs > rhs + tol:
            out.append(
                PotentialViolation(
                    src=t.src,
                    dst=t.dst,
                    token=t.token,
                    rww_cost=t.rww_cost,
                    opt_cost=t.opt_cost,
                    slack=lhs - rhs,
                )
            )
    return out


def verify_potential_on_tokens(
    tokens: Sequence[Token],
    potentials: Dict[State, float],
    c: float,
    tol: float = 1e-9,
) -> Tuple[int, int, List[PotentialViolation]]:
    """Replay one edge's stream against an optimal OPT schedule.

    Returns ``(rww_total, opt_total, violations)`` where violations list the
    requests whose amortized cost exceeded ``c`` times OPT's cost.
    """
    schedule = edge_dp_cost(tokens).schedule
    x, y = 0, 0
    rww_total = opt_total = 0
    violations: List[PotentialViolation] = []
    for tok, x2 in zip(tokens, schedule):
        y2, rww_cost = rww_step(y, tok)
        opt_cost = None
        for cand_state, cand_cost in TRANSITIONS[(x, tok)]:
            if cand_state == x2:
                opt_cost = cand_cost
                break
        if opt_cost is None:  # pragma: no cover - DP schedule is always legal
            raise RuntimeError(f"DP schedule made an illegal move {x}->{x2} on {tok}")
        lhs = potentials[(x2, y2)] - potentials[(x, y)] + rww_cost
        rhs = c * opt_cost
        if lhs > rhs + tol:
            violations.append(
                PotentialViolation(
                    src=(x, y),
                    dst=(x2, y2),
                    token=tok,
                    rww_cost=rww_cost,
                    opt_cost=opt_cost,
                    slack=lhs - rhs,
                )
            )
        rww_total += rww_cost
        opt_total += opt_cost
        x, y = x2, y2
    return rww_total, opt_total, violations
