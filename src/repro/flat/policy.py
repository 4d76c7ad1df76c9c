"""Flattening lease policies into per-edge integer parameters.

The reference backend dispatches every policy decision through virtual
``LeasePolicy`` hook calls.  The flat backend cannot afford a method
call per message, so it *flattens* the policy once at construction into

* a **mode** — which family of hook bodies the drain loop inlines
  (``M_RWW``, ``M_AB``, ``M_ALWAYS``, ``M_NEVER``), and
* per-edge integer parameters — the grant threshold ``a`` and break
  tolerance ``b`` stored in the runtime's ``pa``/``pb`` slot arrays
  (``lt``/``cc`` are the corresponding mutable timers).

Only the built-in deterministic policies flatten; anything else — a
user subclass with overridden hooks, :class:`~repro.core.randomized.
RandomBreakPolicy` — raises :class:`~repro.core.backend.
BackendUnsupported`; such policies run on the reference backend.  The
check is intentionally ``type(...) is`` exact: a subclass *might* behave
identically, but the flat backend must never silently drop an override.

``render`` records which attribute dictionary shape
``state_snapshot()`` must synthesize so flat snapshots are
bit-identical to ``vars(policy)`` on the reference backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.backend import BackendUnsupported
from repro.core.policies import (
    ABPolicy,
    AlwaysLeasePolicy,
    HeterogeneousABPolicy,
    NeverLeasePolicy,
    RWW_BREAK_AFTER,
    RWWPolicy,
    WriteOncePolicy,
)

__all__ = [
    "M_AB",
    "M_ALWAYS",
    "M_NEVER",
    "M_RWW",
    "FlatPolicySpec",
    "policy_spec",
]

#: Inlined hook families (see the drain loop in ``repro.flat.runtime``).
M_RWW = 0
M_AB = 1
M_ALWAYS = 2
M_NEVER = 3


@dataclass(frozen=True)
class FlatPolicySpec:
    """One node's flattened policy: mode + per-neighbor ``(a, b)``.

    ``render`` is the snapshot flavor: ``"rww"`` (a ``lt`` dict),
    ``"ab"`` (``a``/``b``/``lt``/``cc``), ``"het"`` (``params``/
    ``default``/``lt``/``cc``) or ``"none"`` (no attributes).
    """

    mode: int
    render: str
    a: int = 1
    b: int = 0
    params: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    default: Tuple[int, int] = (1, 2)

    def ab_for(self, v: int) -> Tuple[int, int]:
        """The (grant, break) parameters for the edge toward neighbor ``v``."""
        if self.render == "het":
            return tuple(self.params.get(v, self.default))
        return (self.a, self.b)


def policy_spec(policy: object) -> FlatPolicySpec:
    """Flatten one policy instance, or raise :class:`BackendUnsupported`."""
    t = type(policy)
    if t is RWWPolicy:
        return FlatPolicySpec(M_RWW, "rww", a=1, b=RWW_BREAK_AFTER)
    if t is ABPolicy or t is WriteOncePolicy:
        return FlatPolicySpec(M_AB, "ab", a=policy.a, b=policy.b)
    if t is HeterogeneousABPolicy:
        return FlatPolicySpec(
            M_AB,
            "het",
            params={v: tuple(ab) for v, ab in policy.params.items()},
            default=tuple(policy.default),
        )
    if t is AlwaysLeasePolicy:
        return FlatPolicySpec(M_ALWAYS, "none")
    if t is NeverLeasePolicy:
        return FlatPolicySpec(M_NEVER, "none")
    raise BackendUnsupported(
        f"policy {t.__name__} does not flatten; use the reference backend"
    )
