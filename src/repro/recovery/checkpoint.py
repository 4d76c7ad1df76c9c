"""Restorable checkpoints of a node's volatile protocol state.

The crash model splits :class:`~repro.core.mechanism.LeaseNode` state into
two durability classes:

* **durable** — ``val``, ``upcntr``, the ghost logs: the write-ahead part.
  A crash never loses these (every write is durable before it completes),
  so checkpoints neither capture nor restore them.
* **volatile** — the lease tables (``taken``/``granted``), the cached
  subtree views (``aval``), the ``uaw`` windows, ``sntupdates``, and the
  policy's bookkeeping.  A crash loses everything since the last
  checkpoint; recovery rolls these back to the checkpointed copies and
  then *distrusts* them — the reconciliation round
  (:meth:`LeaseNode.recover_reconcile`) voids the restored leases and
  re-pulls fresh views, because peers may have moved on while the node was
  down.  A recovery that skips that round and trusts the checkpointed
  lease tables serves stale reads — exactly the seeded mutant the model
  checker catches (see ``verify explore``).

Each checkpoint carries a deterministic :attr:`Checkpoint.digest` over its
canonical form (:func:`repro.util.canon.canonical_value`), so equality of
checkpoint content is testable without comparing mutable containers, and
the serialized form is stable across runs.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.util.canon import canonical_value

__all__ = ["Checkpoint", "CheckpointStore"]


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(canonical_value(payload)).encode()).hexdigest()[:16]


@dataclass
class Checkpoint:
    """One node's volatile state at a checkpoint instant.

    Attributes
    ----------
    node:
        The node id the checkpoint belongs to.
    seq:
        Monotone per-node checkpoint sequence number.
    time:
        Virtual time of the capture.
    taken / granted / aval / uaw / sntupdates / policy_state:
        Deep copies of the volatile protocol state (see module doc).
    digest:
        Canonical content digest (filled by :meth:`capture`).
    """

    node: int
    seq: int
    time: float
    taken: Dict[int, bool] = field(default_factory=dict)
    granted: Dict[int, bool] = field(default_factory=dict)
    aval: Dict[int, Any] = field(default_factory=dict)
    uaw: Dict[int, Set[int]] = field(default_factory=dict)
    sntupdates: List[Tuple[int, int, int]] = field(default_factory=list)
    policy_state: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""

    @classmethod
    def capture(cls, node: Any, seq: int, time: float) -> "Checkpoint":
        """Snapshot the volatile state of ``node`` (a ``LeaseNode``)."""
        cp = cls(
            node=node.id,
            seq=seq,
            time=time,
            taken=dict(node.taken),
            granted=dict(node.granted),
            aval=copy.deepcopy(node.aval),
            uaw={v: set(s) for v, s in node.uaw.items()},
            sntupdates=list(node.sntupdates),
            policy_state=copy.deepcopy(
                {k: v for k, v in vars(node.policy).items() if not k.startswith("_")}
            ),
        )
        cp.digest = _digest(
            (cp.taken, cp.granted, cp.aval, cp.uaw, cp.sntupdates, cp.policy_state)
        )
        return cp

    def restore(self, node: Any) -> None:
        """Write the checkpointed volatile state back into ``node``.

        Only neighbors the node *currently* has are restored — the
        topology may have changed while the node was down (dynamic trees);
        state for departed neighbors is dropped, new neighbors keep their
        fresh attach-time state.  Durable fields are untouched.
        """
        current = set(node.nbrs)
        node.taken.update({v: f for v, f in self.taken.items() if v in current})
        node.granted.update({v: f for v, f in self.granted.items() if v in current})
        node.aval.update(
            {v: copy.deepcopy(x) for v, x in self.aval.items() if v in current}
        )
        node.uaw.update({v: set(s) for v, s in self.uaw.items() if v in current})
        node.sntupdates = [t for t in self.sntupdates if t[0] in current]
        for k, v in copy.deepcopy(self.policy_state).items():
            setattr(node.policy, k, v)


class CheckpointStore:
    """Latest-checkpoint-per-node storage with per-node sequence numbers."""

    def __init__(self) -> None:
        self._latest: Dict[int, Checkpoint] = {}
        self._seq: Dict[int, int] = {}

    def next_seq(self, node: int) -> int:
        """The sequence number the node's next checkpoint should carry."""
        return self._seq.get(node, -1) + 1

    def save(self, cp: Checkpoint) -> None:
        self._latest[cp.node] = cp
        self._seq[cp.node] = cp.seq

    def latest(self, node: int) -> Optional[Checkpoint]:
        return self._latest.get(node)

    def drop(self, node: int) -> None:
        """Forget a node's checkpoints (dynamic leave)."""
        self._latest.pop(node, None)
        self._seq.pop(node, None)

    def __len__(self) -> int:
        return len(self._latest)
