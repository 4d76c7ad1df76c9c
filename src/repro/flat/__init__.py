"""The flat execution backend: array-indexed protocol state.

``repro.flat`` is the second implementation of the execution-backend
seam defined in :mod:`repro.core.backend`.  Where the reference backend
(:class:`~repro.core.runtime.NodeRuntime`) keeps one ``LeaseNode``
object per node and one frozen dataclass per message, the flat backend
stores every per-node and per-edge protocol variable in integer-indexed
arrays over a CSR adjacency layout, interns messages as small ints /
tuples, and drains the wire in one batched kernel loop with deferred
per-edge accounting.  Same automaton, same message counts, same results
and quiescent snapshots — an order of magnitude faster at large n.  It
runs only what the kernel covers: traces, ghost logs, crashes and
model-checker stepping need the reference backend.

Select it through the factory::

    from repro import AggregationSystem
    system = AggregationSystem(tree, backend="flat")

or build the runtime directly with
:func:`repro.core.backend.build_backend`.
"""

from repro.flat.policy import FlatPolicySpec, policy_spec
from repro.flat.runtime import FlatRuntime

__all__ = ["FlatPolicySpec", "FlatRuntime", "policy_spec"]
