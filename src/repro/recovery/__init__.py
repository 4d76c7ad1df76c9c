"""Crash-recovery subsystem: checkpoints, lease TTLs, and the manager.

The paper proves its guarantees under permanently-live nodes; this package
makes node death survivable.  Three pieces:

* :mod:`repro.recovery.checkpoint` — periodic, restorable snapshots of
  each node's *volatile* protocol state (lease tables, cached subtree
  views, policy bookkeeping) with a canonical digest;
* :mod:`repro.recovery.lease_ttl` — the TTL-expiry law behind the
  recovery manager's lease timers;
* :mod:`repro.recovery.manager` — the :class:`RecoveryManager`, written
  once for both clock domains: ``NodeRuntime`` hosts it over the
  simulator's virtual clock, ``NodeServer`` over a ``serve`` process's
  hybrid logical clock.  It checkpoints live nodes, restores the last
  checkpoint and runs the release/probe reconciliation round at recovery,
  expires a dead holder's leases by TTL, re-probes stuck rounds, and
  reports recovery metrics (crash/recovery counters, lost messages, a
  time-to-recover histogram).

See DESIGN.md ("Fault model and crash recovery") for the protocol
rationale and the recovery sequence diagram.
"""

from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.lease_ttl import LeaseExpiry
from repro.recovery.manager import RecoveryConfig, RecoveryManager

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "LeaseExpiry",
    "RecoveryConfig",
    "RecoveryManager",
]
