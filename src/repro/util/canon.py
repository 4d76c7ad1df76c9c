"""Canonical, hashable renderings of arbitrary protocol state.

The verification toolkit (:mod:`repro.verify`) dedupes explored states by
hashing them, which needs every piece of node/transport state — operator
values, ``uaw`` sets, queued :class:`~repro.core.messages.Message` objects,
ghost-log :class:`~repro.workloads.requests.Request` records — reduced to
one deterministic, hashable form.  :func:`canonical_value` is that single
reduction, shared by :meth:`LeaseNode.state_snapshot`,
:meth:`SynchronousNetwork.pending_snapshot` and the explorer itself so the
layers agree on what "the same state" means.

The mapping is structural, not identity-based:

* scalars (``None``/bool/int/float/str) pass through;
* lists/tuples become tuples of canonical elements (order preserved);
* sets/frozensets become *sorted* tuples (insertion order erased);
* dicts become sorted ``(key, value)`` tuples;
* dataclasses (frozen messages, mutable requests alike) become
  ``(class name, (field, value), ...)`` tuples via their declared fields;
* a ``random.Random`` becomes its ``getstate()``, so a generator and its
  deep copy render equal until one of them draws;
* anything else falls back to ``repr``.

Two states hash equal iff their canonical forms are equal, so the explorer
never conflates states that differ in any protocol-relevant field.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Hashable, Tuple

__all__ = ["canonical_value"]


def _sort_key(value: Hashable) -> Tuple[str, str]:
    # Sets may mix types (ints, tuples); sort on (type name, repr) so the
    # ordering is total and deterministic across runs.
    return (type(value).__name__, repr(value))


def canonical_value(value: Any) -> Hashable:
    """A deterministic, hashable rendering of ``value`` (see module doc)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(canonical_value(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((canonical_value(v) for v in value), key=_sort_key))
    if isinstance(value, dict):
        return tuple(
            sorted(
                ((canonical_value(k), canonical_value(v)) for k, v in value.items()),
                key=_sort_key,
            )
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, canonical_value(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, random.Random):
        return ("Random", value.getstate())
    return repr(value)
