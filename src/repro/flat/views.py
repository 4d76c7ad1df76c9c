"""Live, read-only node views over the flat runtime's arrays.

The flat backend has no per-node objects — but everything *around* the
engines (the quiescent-invariant checker, monitors, golden tests,
``state_snapshot()``) inspects nodes through the ``LeaseNode`` attribute
surface: ``node.taken[v]``, ``node.pndg``, ``vars(node.policy)``,
``node.state_snapshot()``...  This module provides that surface as thin
live views: a :class:`FlatNode` per node id whose per-neighbor tables
are :class:`_SlotMap` mappings reading the runtime's slot arrays.  Views
never write; the runtime's kernel is the only code that changes flat
protocol state.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Set, Tuple

from repro.core.mechanism import relay_triples
from repro.util.canon import canonical_value

__all__ = ["FlatNode", "_FlatPolicyView", "_SlotMap"]


class _SlotMap(Mapping):
    """``{neighbor id: value}`` view over one node's span of a slot array."""

    __slots__ = ("_rt", "_node", "_array")

    def __init__(self, rt: Any, node: int, array: List[Any]) -> None:
        self._rt = rt
        self._node = node
        self._array = array

    def __getitem__(self, v: int) -> Any:
        s = self._rt._slot_index.get((self._node, v))
        if s is None:
            raise KeyError(v)
        return self._array[s]

    def __iter__(self) -> Iterator[int]:
        rt = self._rt
        u = self._node
        return iter(rt._peer[rt._off[u] : rt._off[u + 1]])

    def __len__(self) -> int:
        rt = self._rt
        u = self._node
        return rt._off[u + 1] - rt._off[u]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(dict(self))


class _FlatPolicyView:
    """``vars()``-compatible stand-in for the node's policy instance.

    Exposes the flattened policy's bookkeeping with the exact attribute
    shape of the original policy class (``lt`` for RWW; ``a``/``b``/
    ``lt``/``cc`` for (a,b); ``params``/``default``/``lt``/``cc`` for the
    heterogeneous variant), so ``vars(node.policy)`` renders as on the
    reference backend.
    """

    def __init__(self, rt: Any, node: int) -> None:
        spec = rt._specs[node]
        render = spec.render
        if render == "ab":
            self.a = spec.a
            self.b = spec.b
        elif render == "het":
            self.params = dict(spec.params)
            self.default = tuple(spec.default)
        if render in ("rww", "ab", "het"):
            self.lt = _SlotMap(rt, node, rt._lt)
        if render in ("ab", "het"):
            self.cc = _SlotMap(rt, node, rt._cc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_FlatPolicyView({self.__dict__!r})"


class FlatNode:
    """Read-only view of one node's protocol state in a flat runtime.

    Implements the inspection surface of
    :class:`~repro.core.mechanism.LeaseNode`; message handling lives in
    the runtime's kernel, request initiation in its ``submit_*`` methods.
    """

    #: The flat backend keeps no ghost logs (they need the reference one).
    ghost = None

    def __init__(self, rt: Any, node_id: int) -> None:
        self._rt = rt
        self.id = node_id
        self.taken = _SlotMap(rt, node_id, rt._taken)
        self.granted = _SlotMap(rt, node_id, rt._granted)
        self.aval = _SlotMap(rt, node_id, rt._aval)
        self.uaw = _SlotMap(rt, node_id, rt._uaw)
        self.policy = _FlatPolicyView(rt, node_id)

    # ------------------------------------------------------------ identity
    @property
    def tree(self) -> Any:
        return self._rt.tree

    @property
    def op(self) -> Any:
        return self._rt.op

    @property
    def nbrs(self) -> Tuple[int, ...]:
        rt = self._rt
        u = self.id
        return tuple(rt._peer[rt._off[u] : rt._off[u + 1]])

    # ------------------------------------------------------------ variables
    @property
    def val(self) -> Any:
        return self._rt._val[self.id]

    @property
    def pndg(self) -> Set[int]:
        return self._rt._pndg[self.id]

    @property
    def snt(self) -> Dict[int, Set[int]]:
        return self._rt._snt[self.id]

    @property
    def upcntr(self) -> int:
        return self._rt._upcntr[self.id]

    @property
    def completed_requests(self) -> int:
        return self._rt._completed[self.id]

    # ------------------------------------------------------------- derived
    def tkn(self) -> List[int]:
        return [v for v in self.nbrs if self.taken[v]]

    def grntd(self) -> List[int]:
        return [v for v in self.nbrs if self.granted[v]]

    def sntprobes(self) -> Set[int]:
        return self._rt._sntprobes(self.id)

    def gval(self) -> Any:
        return self._rt._gval(self.id)

    def subval(self, w: int) -> Any:
        rt = self._rt
        return rt._subval(self.id, rt._slot_index[(self.id, w)])

    def isgoodforrelease(self, w: int) -> bool:
        return not any(self.granted[v] for v in self.nbrs if v != w)

    # --------------------------------------------------------- verification
    def has_pending(self) -> bool:
        rt = self._rt
        return bool(rt._pndg[self.id]) or bool(rt._waiters[self.id])

    def quiescent_state_ok(self) -> bool:
        return not self.pndg and all(not s for s in self.snt.values())

    def state_snapshot(self) -> Tuple[Any, ...]:
        """Byte-identical to :meth:`LeaseNode.state_snapshot` (pinned by
        tests): same tuple layout, same synthesized policy state."""
        rt = self._rt
        u = self.id
        nbrs = self.nbrs
        policy_state = canonical_value(
            {
                k: (dict(v) if isinstance(v, _SlotMap) else v)
                for k, v in vars(self.policy).items()
            }
        )
        return (
            u,
            canonical_value(self.val),
            tuple(sorted((v, self.taken[v]) for v in nbrs)),
            tuple(sorted((v, self.granted[v]) for v in nbrs)),
            tuple(sorted((v, canonical_value(self.aval[v])) for v in nbrs)),
            tuple(sorted((v, tuple(sorted(self.uaw[v]))) for v in nbrs)),
            tuple(sorted(self.pndg)),
            tuple(sorted((r, tuple(sorted(t))) for r, t in self.snt.items())),
            self.upcntr,
            relay_triples(
                {
                    rt._peer[t]: (rt._win_nid[t], rt._win_uid[t])
                    for t in range(rt._off[u], rt._off[u + 1])
                }
            ),
            self.completed_requests,
            tuple(canonical_value(q) for q, _ in rt._waiters[u]),
            tuple(
                sorted(
                    (v, tuple(canonical_value(q) for q, _ in ws))
                    for v, ws in rt._scoped_waiters[u].items()
                    if ws
                )
            ),
            policy_state,
            None,  # ghost state
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatNode(id={self.id}, val={self.val!r}, "
            f"taken={self.tkn()}, granted={self.grntd()})"
        )
