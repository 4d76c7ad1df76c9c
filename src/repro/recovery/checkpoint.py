"""Restorable checkpoints of a node's volatile protocol state.

The crash model splits :class:`~repro.core.mechanism.LeaseNode` state into
two durability classes:

* **durable** — ``val``, ``upcntr``, the ghost logs: the write-ahead part.
  Checkpoints neither capture nor restore them.  In the simulator a crash
  never loses them: :meth:`LeaseNode.crash_volatile` leaves them alone.
  A ``serve`` process has no durable store for them.  A restarted
  ``serve-node`` builds each hosted node fresh: its ``val`` is the
  operator's identity until the node is written again, its ``upcntr``
  restarts from 0, and the writes it completed before the kill are lost.
  ROADMAP.md item 1 ("Crash recovery without checkpoints") plans one
  crash contract for both hosts.
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

A checkpoint holds the volatile tables as one :func:`pickle.dumps` blob.
One pickle is cheaper than deep-copying each table, the blob shares
nothing with the node it came from, and every :meth:`Checkpoint.restore`
unpickles fresh objects, so two restores from one checkpoint share
nothing either.  Each checkpoint has a deterministic
:attr:`Checkpoint.digest` over the canonical form of those tables
(:func:`repro.util.canon.canonical_value`), so equality of checkpoint
content is testable without comparing mutable containers.  The digest is
computed when read, not at capture: checkpoints are taken far more often
than compared.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.util.canon import canonical_value

__all__ = ["Checkpoint", "CheckpointStore"]


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
    state:
        One pickle of the volatile protocol state (see module doc), the
        tuple ``(taken, granted, aval, uaw, sntupdates, policy_state)``;
        ``sntupdates`` is the node's relay ledger, ``{source neighbor:
        (sntids, rcvids)}``, and ``policy_state`` the policy's public
        attributes.
    """

    node: int
    seq: int
    time: float
    state: bytes

    @classmethod
    def capture(cls, node: Any, seq: int, time: float) -> "Checkpoint":
        """Snapshot the volatile state of ``node`` (a ``LeaseNode``)."""
        policy_state = {
            k: v for k, v in vars(node.policy).items() if not k.startswith("_")
        }
        tables = (
            node.taken, node.granted, node.aval, node.uaw, node.sntupdates,
            policy_state,
        )
        return cls(
            node=node.id,
            seq=seq,
            time=time,
            state=pickle.dumps(tables),
        )

    @property
    def digest(self) -> str:
        """Canonical content digest of the captured volatile state."""
        payload = pickle.loads(self.state)
        return hashlib.sha256(repr(canonical_value(payload)).encode()).hexdigest()[:16]

    def restore(self, node: Any) -> None:
        """Write the checkpointed volatile state back into ``node``.

        Only neighbors the node *currently* has are restored — the
        topology may have changed while the node was down (dynamic trees);
        state for departed neighbors is dropped, new neighbors keep their
        fresh attach-time state.  Durable fields are untouched.
        """
        taken, granted, aval, uaw, sntupdates, policy_state = pickle.loads(self.state)
        current = set(node.nbrs)
        node.taken.update({v: f for v, f in taken.items() if v in current})
        node.granted.update({v: f for v, f in granted.items() if v in current})
        node.aval.update({v: x for v, x in aval.items() if v in current})
        node.uaw.update({v: s for v, s in uaw.items() if v in current})
        node.sntupdates = {v: e for v, e in sntupdates.items() if v in current}
        for k, v in policy_state.items():
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
