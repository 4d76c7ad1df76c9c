"""Static effect analysis: the protocol reaction graph, extracted from source.

The paper's correctness argument (Lemmas 3.1/3.3, Theorems 1-4) rests on
each node reacting to one received message kind with a *bounded, known* set
of sends and state mutations.  This module pins that reaction graph
statically: a call-graph-, alias- and role-sensitive AST analysis over the
:class:`~repro.core.mechanism.LeaseNode` ``_DISPATCH`` handlers (and over
the kind dispatch of the flat backend's kernel,
:meth:`repro.flat.runtime.FlatRuntime._kernel`) extracts, per received
message kind, the **effect set**

* message kinds sent, tagged with the *neighbor role* of the destination —
  ``"src"`` (statically the neighbor the triggering message came from) or
  ``"other"`` (a computed neighbor target, which may coincide with the
  source at runtime);
* protocol trace events emitted (transport-level ``send``/``recv``/
  ``deliver`` events are excluded — they belong to the transport, not the
  reaction);
* normalized node-state fields read and written (the Figure-1 ``var``
  block plus ``policy``/``ghost``/waiter bookkeeping; the flat backend's
  arrays are mapped back onto the same names, e.g. ``_win_nid`` ->
  ``sntupdates``);
* **unknown effects**: writes that escape the node-local state model
  (shared objects, globals, class attributes).  A handler with unknown
  effects voids the independence argument below.

Three consumers share this one source of truth:

1. **PL50x lint rules** (:func:`check_reaction`, wired into
   :func:`repro.verify.protolint.run_lint`): the extracted sets are
   compared against the declared golden spec in
   :mod:`repro.verify.reaction_spec` and against each other (core vs
   flat, projected onto flat's declared scope), so protocol drift between
   the backends or against the paper is a lint failure rather than a
   flaky integration test.
2. **Derived POR independence** (:func:`derived_independence`): the model
   checker's claim that two deliveries to distinct nodes commute is
   *derived* here from the extracted footprints — every handler write is
   node-local state, so deliveries at distinct nodes touch disjoint state,
   and per-edge FIFO queues make the enqueue order of their sends
   immaterial.  If extraction finds an unknown (non-node-local) write the
   relation soundly degrades to full dependence.
3. **The reaction-graph artifact** (``python -m repro verify effects
   --json``): the JSON consumed by CI (uploaded as
   ``reaction_graph.json``) and by the DESIGN.md reaction table.

The analysis never imports the code under test — it parses source, so it
runs on deliberately broken fixtures (the seeded-mutant tests) exactly like
:mod:`repro.verify.protolint`.  It is path-insensitive (effects are
unioned over all branches — an over-approximation) but call-graph
sensitive (helper procedures like ``sendresponse`` are traversed with the
caller's neighbor-role bindings) and alias-sensitive (``targets =
self.snt.get(v)`` followed by ``targets.discard(w)`` is a ``snt`` write,
and so is ``nids.append(i)`` after ``nids, rcvids = self.sntupdates[w]``).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.verify.protolint import Finding, _parse, _rel

__all__ = [
    "EffectSet",
    "ReactionGraph",
    "DerivedIndependence",
    "extract_core_effects",
    "extract_flat_effects",
    "extract_reaction_graph",
    "flat_scope",
    "FLAT_KINDS",
    "check_reaction",
    "derived_independence",
    "reaction_graph_json",
    "MESSAGE_KINDS",
    "NODE_STATE_FIELDS",
]

#: Message class name -> wire kind, as declared in ``core/messages.py``.
MESSAGE_KINDS: Dict[str, str] = {
    "Probe": "probe",
    "Response": "response",
    "Update": "update",
    "Release": "release",
    "Revoke": "revoke",
}

#: Normalized node-state field names (the Figure-1 ``var`` block plus the
#: extension bookkeeping).  ``policy`` and ``ghost`` are opaque per-node
#: sub-objects: any policy hook call or ghost mutation is modeled as a
#: read+write / write of the whole sub-object.
NODE_STATE_FIELDS: FrozenSet[str] = frozenset(
    {
        "val",
        "taken",
        "granted",
        "aval",
        "uaw",
        "pndg",
        "snt",
        "upcntr",
        "sntupdates",
        "completed_requests",
        "waiters",
        "scoped_waiters",
        "policy",
        "ghost",
    }
)

#: Destination-role tags (see module docstring).
ROLES = ("src", "other")

#: Trace kinds owned by the transport, not the handler reaction.
_TRANSPORT_EVENT_KINDS = {"send", "recv", "deliver", "delivery_failed"}

#: Container methods that mutate their receiver.
_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "sort",
    "update",
}

#: ``self.ghost`` methods that mutate the ghost log.
_GHOST_MUTATORS = {"merge", "append_gather", "append_write"}


# --------------------------------------------------------------------- model
@dataclass(frozen=True)
class EffectSet:
    """The static effect set of one message-kind handler."""

    #: sent message kind -> destination roles ("src" / "other").
    sends: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: protocol trace event kinds emitted.
    emits: FrozenSet[str]
    #: normalized node-state fields read.
    reads: FrozenSet[str]
    #: normalized node-state fields written.
    writes: FrozenSet[str]
    #: effects escaping the node-local model (empty for a correct handler).
    unknown: FrozenSet[str] = frozenset()

    @staticmethod
    def make(
        sends: Mapping[str, Iterable[str]],
        emits: Iterable[str],
        reads: Iterable[str],
        writes: Iterable[str],
        unknown: Iterable[str] = (),
    ) -> "EffectSet":
        return EffectSet(
            sends=tuple(
                sorted((k, tuple(sorted(set(v)))) for k, v in sends.items())
            ),
            emits=frozenset(emits),
            reads=frozenset(reads),
            writes=frozenset(writes),
            unknown=frozenset(unknown),
        )

    @property
    def send_map(self) -> Dict[str, FrozenSet[str]]:
        return {k: frozenset(v) for k, v in self.sends}

    def to_dict(self) -> Dict[str, object]:
        return {
            "sends": {k: sorted(v) for k, v in self.sends},
            "emits": sorted(self.emits),
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "unknown": sorted(self.unknown),
        }


@dataclass
class _Effects:
    """Mutable accumulator used during traversal."""

    sends: Dict[str, Set[str]] = field(default_factory=dict)
    emits: Set[str] = field(default_factory=set)
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    unknown: Set[str] = field(default_factory=set)

    def add_send(self, kind: str, role: str) -> None:
        self.sends.setdefault(kind, set()).add(role)

    def absorb(self, other: "_Effects") -> None:
        for kind, roles in other.sends.items():
            self.sends.setdefault(kind, set()).update(roles)
        self.emits |= other.emits
        self.reads |= other.reads
        self.writes |= other.writes
        self.unknown |= other.unknown

    def freeze(self) -> EffectSet:
        return EffectSet.make(
            self.sends, self.emits, self.reads, self.writes, self.unknown
        )


@dataclass(frozen=True)
class ReactionGraph:
    """Extracted effect sets per implementation, keyed by message kind."""

    core: Dict[str, EffectSet]
    flat: Dict[str, EffectSet]
    core_path: str
    flat_path: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "core": {k: e.to_dict() for k, e in sorted(self.core.items())},
            "flat": {k: e.to_dict() for k, e in sorted(self.flat.items())},
            "core_path": self.core_path,
            "flat_path": self.flat_path,
        }


# ----------------------------------------------------------- class analysis
class _ClassMethods:
    """Method-name -> FunctionDef for one class of a parsed module."""

    def __init__(self, module: ast.Module, class_name: str) -> None:
        self.methods: Dict[str, ast.FunctionDef] = {}
        for node in module.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.methods[item.name] = item


def _self_attr(expr: ast.expr) -> Optional[str]:
    """``self.X`` -> ``"X"`` (descending through subscript chains)."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _base_name(expr: ast.expr) -> Optional[str]:
    """``name[...]...`` -> ``"name"`` (descending through subscripts)."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _ImplConfig:
    """Implementation-specific knobs for the shared traversal."""

    def __init__(
        self,
        *,
        state_map: Dict[str, str],
        read_only: Set[str],
        send_primitives: Dict[str, str],
        policy_attr: Optional[str],
        wire_codes: Optional[Dict[int, str]] = None,
    ) -> None:
        #: raw attribute -> normalized field name.
        self.state_map = state_map
        #: attributes that are legitimately read but must never be written
        #: by a handler (topology, transport seam, telemetry).
        self.read_only = read_only
        #: self-method name treated as a send primitive -> message kind
        #: (empty string = core's generic ``send`` whose kind comes from
        #: the message constructor argument).
        self.send_primitives = send_primitives
        #: attribute whose method calls are policy hooks (core only).
        self.policy_attr = policy_attr
        #: flat only: wire code -> kind, for decoding messages appended to
        #: the ``_queue`` wire (see :func:`_decode_interned`).
        self.wire_codes = wire_codes


@dataclass
class _Scope:
    """The name bindings of one method (or kernel) traversal."""

    #: local -> neighbor role ("src" for the triggering message's sender).
    roles: Dict[str, str]
    stack: FrozenSet[str]
    #: local -> normalized state field it aliases.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: local -> read-only attribute it aliases (``rev = self._rev``).
    shared: Dict[str, str] = field(default_factory=dict)
    #: locals bound to the wire queue's ``append`` (``push``).
    pushers: Set[str] = field(default_factory=set)
    locals_seen: Set[str] = field(default_factory=set)
    globals_declared: Set[str] = field(default_factory=set)


def _decode_interned(
    msg: ast.expr, codes: Dict[int, str]
) -> Optional[Tuple[str, ast.expr]]:
    """A message appended to the flat wire -> (kind, destination slot
    expression).

    Tuples carry ``(code, slot, ...)``.  The only int form is
    ``slot << 3``: code 0 in the low three bits.
    """
    if isinstance(msg, ast.Tuple) and len(msg.elts) >= 2:
        code = msg.elts[0]
        if isinstance(code, ast.Constant) and code.value in codes:
            return codes[code.value], msg.elts[1]
    if (
        isinstance(msg, ast.BinOp)
        and isinstance(msg.op, ast.LShift)
        and isinstance(msg.right, ast.Constant)
        and msg.right.value == 3
        and 0 in codes
    ):
        return codes[0], msg.left
    return None


class _MethodWalker:
    """Walks one method body, accumulating effects; recurses into
    same-class helper calls with the caller's neighbor-role bindings."""

    def __init__(self, cls: _ClassMethods, config: _ImplConfig, out: _Effects) -> None:
        self.cls = cls
        self.config = config
        self.out = out

    # -- roles ---------------------------------------------------------
    @staticmethod
    def _role_of(expr: ast.expr, roles: Dict[str, str]) -> str:
        if isinstance(expr, ast.Name):
            return roles.get(expr.id, "other")
        return "other"

    @staticmethod
    def _ctor_kind(expr: ast.expr) -> Optional[str]:
        """Message constructor call -> wire kind (None if unrecognizable)."""
        if isinstance(expr, ast.Call):
            fn = expr.func
            name = None
            if isinstance(fn, ast.Name):
                name = fn.id
            elif isinstance(fn, ast.Attribute):
                name = fn.attr
            if name is not None:
                return MESSAGE_KINDS.get(name, name.lower())
        return None

    # -- fields --------------------------------------------------------
    def _record_read(self, attr: str) -> None:
        norm = self.config.state_map.get(attr)
        if norm is not None:
            self.out.reads.add(norm)

    def _record_write(self, attr: str) -> None:
        norm = self.config.state_map.get(attr)
        if norm is not None:
            self.out.writes.add(norm)
        elif attr in self.config.read_only:
            self.out.unknown.add(f"write to shared read-only attribute '{attr}'")
        else:
            self.out.unknown.add(f"write to non-state attribute '{attr}'")

    def _shared_attr(self, expr: ast.expr, scope: _Scope) -> Optional[str]:
        """Read-only attribute ``expr`` names: ``self.X`` or a local alias."""
        attr = _self_attr(expr)
        if attr is None and isinstance(expr, ast.Name):
            attr = scope.shared.get(expr.id)
        return attr if attr in self.config.read_only else None

    # -- traversal -----------------------------------------------------
    def walk(self, method: str, roles: Dict[str, str], stack: FrozenSet[str]) -> None:
        fn = self.cls.methods.get(method)
        if fn is None or method in stack:
            return
        scope = _Scope(
            roles=roles,
            stack=stack | {method},
            locals_seen={a.arg for a in fn.args.args + fn.args.kwonlyargs},
        )
        self.scan([fn], scope)

    def collect(self, roots: Iterable[ast.AST], scope: _Scope) -> _Effects:
        """The effects of ``roots`` alone (name bindings go to ``scope``)."""
        out, self.out = self.out, _Effects()
        try:
            self.scan(roots, scope)
            return self.out
        finally:
            self.out = out

    def scan(self, roots: Iterable[ast.AST], scope: _Scope) -> None:
        for root in roots:
            for node in ast.walk(root):
                self._visit(node, scope)

    def _visit(self, node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            scope.globals_declared.update(node.names)
        elif isinstance(node, (ast.For, ast.comprehension)):
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    scope.locals_seen.add(t.id)
        elif isinstance(node, ast.Assign):
            self._handle_assign_targets(node.targets, node.value, scope)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._handle_assign_targets([node.target], node.value, scope)
        elif isinstance(node, ast.AugAssign):
            self._handle_store_target(node.target, scope)
            attr = _self_attr(node.target)
            if attr is not None:
                self._record_read(attr)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                self._handle_store_target(t, scope)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                self._record_read(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in scope.aliases:
                self.out.reads.add(scope.aliases[node.id])
        elif isinstance(node, ast.Call):
            self._handle_call(node, scope)

    def _handle_assign_targets(
        self, targets: List[ast.expr], value: ast.expr, scope: _Scope
    ) -> None:
        # Pairwise-match tuple targets to tuple values so swap idioms like
        # ``waiters, self._waiters = self._waiters, []`` resolve per-slot.
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Tuple)
            and isinstance(value, ast.Tuple)
            and len(targets[0].elts) == len(value.elts)
        ):
            for t, v in zip(targets[0].elts, value.elts):
                self._handle_assign_targets([t], v, scope)
            return
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                # ``a, b = self.X[k]``: each name unpacks part of X's value,
                # so each aliases X exactly as ``a = self.X[k]`` would.
                elts = [
                    e.value if isinstance(e, ast.Starred) else e for e in target.elts
                ]
                self._handle_assign_targets(elts, value, scope)
            elif isinstance(target, ast.Name):
                name = target.id
                scope.locals_seen.add(name)
                if name in scope.globals_declared:
                    self.out.unknown.add(f"write to module global '{name}'")
                    continue
                for table in (scope.aliases, scope.shared):
                    table.pop(name, None)
                scope.pushers.discard(name)
                alias = self._alias_of(value, scope.aliases)
                shared = self._shared_attr(value, scope)
                if alias is not None:
                    scope.aliases[name] = alias
                elif shared is not None:
                    scope.shared[name] = shared
                elif self._is_queue_append(value, scope):
                    scope.pushers.add(name)
            else:
                self._handle_store_target(target, scope)

    def _alias_of(self, value: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
        """Normalized field a local is an alias of, if any: ``self.X``,
        ``self.X[...]``, ``self.X.get(...)``/``.pop(...)``, or another alias."""
        expr = value
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            expr = expr.func.value
        attr = _self_attr(expr)
        if attr is not None:
            return self.config.state_map.get(attr)
        base = _base_name(expr)
        if base is not None:
            return aliases.get(base)
        return None

    def _handle_store_target(self, target: ast.expr, scope: _Scope) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._record_write(attr)
            return
        base = _base_name(target)
        if base is None:
            return
        if isinstance(target, ast.Name):
            return  # plain local rebind, handled by _handle_assign_targets
        # Subscript store through a local: an alias of node state writes the
        # state; an alias of a read-only attribute breaks node locality; a
        # plain local container is fine; a store through a name that was
        # never bound locally targets shared module/class state.
        if base in scope.aliases:
            self.out.writes.add(scope.aliases[base])
        elif base in scope.shared:
            self._record_write(scope.shared[base])
        elif base not in scope.locals_seen and base != "self":
            self.out.unknown.add(f"write through non-local name '{base}'")

    def _is_queue_append(self, expr: ast.expr, scope: _Scope) -> bool:
        """``<wire queue>.append`` (flat: ``self._queue`` or its alias)."""
        return (
            self.config.wire_codes is not None
            and isinstance(expr, ast.Attribute)
            and expr.attr == "append"
            and self._shared_attr(expr.value, scope) == "_queue"
        )

    def _handle_push(self, node: ast.Call, scope: _Scope) -> None:
        """A message appended to the flat wire: its kind from the interned
        form, its role from the destination slot — ``rev[s]`` reaches the
        sender of the message being handled."""
        decoded = (
            _decode_interned(node.args[0], self.config.wire_codes or {})
            if len(node.args) == 1
            else None
        )
        if decoded is None:
            self.out.unknown.add("wire push of an undecodable message")
            return
        kind, dest = decoded
        if not (
            isinstance(dest, ast.Subscript)
            and self._shared_attr(dest.value, scope) == "_rev"
        ):
            self.out.unknown.add(f"{kind} pushed to a slot that is not rev[...]")
            return
        self.out.add_send(kind, self._role_of(dest.slice, scope.roles))

    def _handle_call(self, node: ast.Call, scope: _Scope) -> None:
        fn = node.func
        if (isinstance(fn, ast.Name) and fn.id in scope.pushers) or (
            self._is_queue_append(fn, scope)
        ):
            self._handle_push(node, scope)
            return
        # trace.emit(clock, "kind", node, ...) — any receiver (self.trace
        # or a local alias), same heuristic as protolint.
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "emit"
            and len(node.args) >= 3
        ):
            kind_arg = node.args[1]
            if isinstance(kind_arg, ast.Constant) and isinstance(kind_arg.value, str):
                if kind_arg.value not in _TRANSPORT_EVENT_KINDS:
                    self.out.emits.add(kind_arg.value)
            return
        if not isinstance(fn, ast.Attribute):
            return
        roles = scope.roles
        # self.<method>(...) — send primitive, helper recursion.
        if isinstance(fn.value, ast.Name) and fn.value.id == "self":
            name = fn.attr
            if name in self.config.send_primitives:
                kind = self.config.send_primitives[name]
                if kind == "":  # core generic send(dst, Message(...))
                    if len(node.args) >= 2:
                        ctor = self._ctor_kind(node.args[1])
                        role = self._role_of(node.args[0], roles)
                        self.out.add_send(
                            ctor if ctor is not None else "?", role
                        )
                    else:
                        self.out.unknown.add("unanalyzable send call")
                else:
                    role = (
                        self._role_of(node.args[0], roles)
                        if node.args
                        else "other"
                    )
                    self.out.add_send(kind, role)
                return
            if name in self.cls.methods:
                callee = self.cls.methods[name]
                formals = [a.arg for a in callee.args.args if a.arg != "self"]
                callee_roles: Dict[str, str] = {}
                for formal, actual in zip(formals, node.args):
                    callee_roles[formal] = self._role_of(actual, roles)
                self.walk(name, callee_roles, scope.stack)
                return
            return
        # self.policy.<hook>(...): opaque read+write of the policy object.
        if (
            self.config.policy_attr is not None
            and isinstance(fn.value, ast.Attribute)
            and isinstance(fn.value.value, ast.Name)
            and fn.value.value.id == "self"
            and fn.value.attr == self.config.policy_attr
        ):
            self.out.reads.add("policy")
            self.out.writes.add("policy")
            return
        # Mutating container-method calls: self.X.add(...), self.X[...]
        # .clear(), alias.discard(...), self.ghost.merge(...).
        if fn.attr in _MUTATORS or fn.attr in _GHOST_MUTATORS:
            attr = _self_attr(fn.value)
            if attr is not None:
                self._record_write(attr)
                return
            base = _base_name(fn.value)
            if base is not None and base in scope.aliases:
                self.out.writes.add(scope.aliases[base])
            elif base is not None and base in scope.shared:
                self._record_write(scope.shared[base])
            return


# -------------------------------------------------------------- core extract
_CORE_STATE_MAP: Dict[str, str] = {
    "val": "val",
    "taken": "taken",
    "granted": "granted",
    "aval": "aval",
    "uaw": "uaw",
    "pndg": "pndg",
    "snt": "snt",
    "upcntr": "upcntr",
    "sntupdates": "sntupdates",
    "completed_requests": "completed_requests",
    "_waiters": "waiters",
    "_scoped_waiters": "scoped_waiters",
    "policy": "policy",
    "ghost": "ghost",
}

_CORE_READ_ONLY: Set[str] = {
    "id",
    "tree",
    "op",
    "nbrs",
    "trace",
    "_clock",
    "_send",
    "_send_to",
    "_DISPATCH",
}


def _dispatch_handlers(module: ast.Module) -> Dict[str, Tuple[str, int]]:
    """kind -> (handler method name, line) from the ``_DISPATCH.update``
    block (and any literal ``_DISPATCH = {...}`` assignment)."""
    out: Dict[str, Tuple[str, int]] = {}

    def scan_dict(d: ast.expr) -> None:
        if not isinstance(d, ast.Dict):
            return
        for k, v in zip(d.keys, d.values):
            cls_name = None
            if isinstance(k, ast.Name):
                cls_name = k.id
            elif isinstance(k, ast.Attribute):
                cls_name = k.attr
            if cls_name is None:
                continue
            kind = MESSAGE_KINDS.get(cls_name)
            if kind is None:
                continue
            if isinstance(v, ast.Attribute):
                out[kind] = (v.attr, v.lineno)
            elif isinstance(v, ast.Name):
                out[kind] = (v.id, v.lineno)

    for node in ast.walk(module):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "_DISPATCH"
            and node.args
        ):
            scan_dict(node.args[0])
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                name = t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
                if name == "_DISPATCH" and node.value is not None:
                    scan_dict(node.value)
    return out


def extract_core_effects(mechanism_py: Path) -> Dict[str, EffectSet]:
    """Effect set per received kind for the reference ``LeaseNode``."""
    module = ast.parse(mechanism_py.read_text(encoding="utf-8"))
    cls = _ClassMethods(module, "LeaseNode")
    config = _ImplConfig(
        state_map=_CORE_STATE_MAP,
        read_only=_CORE_READ_ONLY,
        send_primitives={"send": ""},
        policy_attr="policy",
    )
    handlers = _dispatch_handlers(module)
    out: Dict[str, EffectSet] = {}
    for kind, (method, _line) in sorted(handlers.items()):
        effects = _Effects()
        walker = _MethodWalker(cls, config, effects)
        fn = cls.methods.get(method)
        if fn is None:
            effects.unknown.add(f"dispatch handler '{method}' not found")
        else:
            formals = [a.arg for a in fn.args.args if a.arg != "self"]
            roles = {formals[0]: "src"} if formals else {}
            walker.walk(method, roles, frozenset())
        out[kind] = effects.freeze()
    return out


# -------------------------------------------------------------- flat extract
#: The flat backend's scope, declared once.  Its kernel receives these
#: kinds (revoke belongs to crash recovery, which runs on the reference
#: backend only), emits no trace events and keeps no ghost log.  PL501,
#: PL502 and PL504 compare the kernel with the spec and with core
#: projected onto this scope (:func:`flat_scope`).
FLAT_KINDS: FrozenSet[str] = frozenset({"probe", "response", "update", "release"})
FLAT_DROPPED_FIELDS: FrozenSet[str] = frozenset({"ghost"})


def flat_scope(eff: EffectSet) -> EffectSet:
    """``eff`` projected onto the flat backend's scope: no emits, no
    dropped fields."""
    return EffectSet.make(
        eff.send_map,
        (),
        eff.reads - FLAT_DROPPED_FIELDS,
        eff.writes - FLAT_DROPPED_FIELDS,
        eff.unknown,
    )


_FLAT_STATE_MAP: Dict[str, str] = {
    "_val": "val",
    "_taken": "taken",
    "_granted": "granted",
    "_aval": "aval",
    "_uaw": "uaw",
    "_pndg": "pndg",
    "_snt": "snt",
    "_upcntr": "upcntr",
    "_win_nid": "sntupdates",
    "_win_uid": "sntupdates",
    "_completed": "completed_requests",
    "_waiters": "waiters",
    "_scoped_waiters": "scoped_waiters",
    "_lt": "policy",
    "_cc": "policy",
    "_pa": "policy",
    "_pb": "policy",
    "_mode": "policy",
}

_FLAT_READ_ONLY: Set[str] = {
    "tree",
    "op",
    "stats",
    "_off",
    "_peer",
    "_owner",
    "_rev",
    "_sib",
    "_slot_index",
    "_queue",
    "_specs",
    "metrics",
}

#: The flat kernel method: one delivery loop split by kind dispatch.
_FLAT_KERNEL = "_kernel"


def _exits(stmts: List[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Continue, ast.Break, ast.Return, ast.Raise)
    )


class _KernelReader:
    """Attributes the statements of the flat kernel's delivery loop to the
    message kinds that reach them.

    The loop pops ``m`` and dispatches on ``type(m) is int`` (code 0, the
    one kind interned as an int, see :func:`_decode_interned`) and on
    ``k == <code>`` tests of the kind variable ``k = m[0]``; a branch
    ending in ``continue`` hands the rest
    of its block to the other kinds.  Statements outside any dispatch
    count for every kind still possible there (an over-approximation, so
    a dispatch the reader does not understand shows up as a finding).
    Names bound to ``m >> 3`` or ``m[1]`` are the receiving slot: the
    role ``src``.
    """

    def __init__(
        self,
        walker: _MethodWalker,
        scope: _Scope,
        msg: str,
        codes: Dict[int, str],
        out: Dict[str, _Effects],
    ) -> None:
        self.walker = walker
        self.scope = scope
        self.msg = msg
        self.codes = codes
        self.int_kinds = frozenset({codes[0]}) if 0 in codes else frozenset()
        self.out = out
        self.kind_vars: Set[str] = set()

    def read(self, loop: ast.While) -> None:
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                field_of_m = self._msg_field(node.value)
                if field_of_m == 0:
                    self.kind_vars.add(node.targets[0].id)
                elif field_of_m == 1:
                    self.scope.roles[node.targets[0].id] = "src"
        self.block(loop.body, frozenset(self.out))

    def _msg_field(self, expr: ast.expr) -> Optional[int]:
        """0 for the kind code of ``m``, 1 for its slot, else None."""
        if isinstance(expr, ast.Subscript) and _base_name(expr) == self.msg:
            index = expr.slice
            if isinstance(index, ast.Constant) and index.value in (0, 1):
                return int(index.value)
        if (
            isinstance(expr, ast.BinOp)
            and isinstance(expr.op, ast.RShift)
            and isinstance(expr.left, ast.Name)
            and expr.left.id == self.msg
        ):
            return 1
        return None

    def _split(
        self, test: ast.expr, kinds: FrozenSet[str]
    ) -> Optional[FrozenSet[str]]:
        """The kinds a dispatch test selects (None: not a dispatch)."""
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
            return None
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if (
            isinstance(op, ast.Is)
            and isinstance(left, ast.Call)
            and isinstance(left.func, ast.Name)
            and left.func.id == "type"
            and len(left.args) == 1
            and isinstance(left.args[0], ast.Name)
            and left.args[0].id == self.msg
            and isinstance(right, ast.Name)
            and right.id == "int"
        ):
            return kinds & self.int_kinds
        if (
            isinstance(op, ast.Eq)
            and isinstance(left, ast.Name)
            and left.id in self.kind_vars
            and isinstance(right, ast.Constant)
            and right.value in self.codes
        ):
            return kinds & {self.codes[right.value]}
        return None

    def block(self, stmts: List[ast.stmt], kinds: FrozenSet[str]) -> None:
        for stmt in stmts:
            chosen = (
                self._split(stmt.test, kinds) if isinstance(stmt, ast.If) else None
            )
            if not isinstance(stmt, ast.If) or chosen is None:
                self.attribute(stmt, kinds)
                continue
            rest = kinds - chosen
            self.block(stmt.body, chosen)
            self.block(stmt.orelse, rest)
            if _exits(stmt.body):
                kinds = rest
            elif _exits(stmt.orelse):
                kinds = chosen

    def attribute(self, stmt: ast.stmt, kinds: FrozenSet[str]) -> None:
        effects = self.walker.collect([stmt], self.scope)
        for kind in kinds:
            self.out[kind].absorb(effects)


def _wire_codes(module: ast.Module) -> Dict[int, str]:
    """Module-level ``K_<KIND> = <int>`` wire codes -> kind."""
    kinds = set(MESSAGE_KINDS.values())
    codes: Dict[int, str] = {}
    for node in module.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith("K_")
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            kind = node.targets[0].id[2:].lower()
            if kind in kinds:
                codes[node.value.value] = kind
    return codes


def extract_flat_effects(runtime_py: Path) -> Dict[str, EffectSet]:
    """Effect set per received kind for the ``FlatRuntime`` kernel, read
    from its kind dispatch and normalized onto the core field names."""
    module = ast.parse(runtime_py.read_text(encoding="utf-8"))
    cls = _ClassMethods(module, "FlatRuntime")
    codes = _wire_codes(module)
    config = _ImplConfig(
        state_map=_FLAT_STATE_MAP,
        read_only=_FLAT_READ_ONLY,
        send_primitives={},
        policy_attr=None,
        wire_codes=codes,
    )
    out = {kind: _Effects() for kind in codes.values()}
    kernel = cls.methods.get(_FLAT_KERNEL)
    found = _delivery_loop(kernel) if kernel is not None else None
    if kernel is None or found is None:
        for effects in out.values():
            effects.unknown.add(
                f"flat kernel '{_FLAT_KERNEL}' with a delivery loop "
                "'while ...: m = pop()' not found"
            )
        return {kind: e.freeze() for kind, e in out.items()}
    at, loop, msg = found
    walker = _MethodWalker(cls, config, _Effects())
    scope = _Scope(
        roles={},
        stack=frozenset({_FLAT_KERNEL}),
        locals_seen={a.arg for a in kernel.args.args},
    )
    # The prologue only binds aliases: ``taken = self._taken`` is no read.
    walker.collect(kernel.body[:at], scope)
    _KernelReader(walker, scope, msg, codes, out).read(loop)
    return {kind: e.freeze() for kind, e in out.items()}


def _delivery_loop(kernel: ast.FunctionDef) -> Optional[Tuple[int, ast.While, str]]:
    """(statement index, loop, message variable) of the kernel's first
    ``while`` loop, which must open with ``m = <pop>()``."""
    for at, stmt in enumerate(kernel.body):
        if isinstance(stmt, ast.While):
            first = stmt.body[0]
            if (
                isinstance(first, ast.Assign)
                and isinstance(first.targets[0], ast.Name)
                and isinstance(first.value, ast.Call)
            ):
                return at, stmt, first.targets[0].id
            return None
    return None


# ------------------------------------------------------------------ assembly
def _default_paths(package_root: Optional[Path]) -> Tuple[Path, Path, Path]:
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
    package_root = Path(package_root)
    return (
        package_root / "core" / "mechanism.py",
        package_root / "flat" / "runtime.py",
        package_root / "net" / "codec.py",
    )


def extract_reaction_graph(package_root: Optional[Path] = None) -> ReactionGraph:
    """Extract both implementations' reaction graphs from source."""
    mechanism_py, runtime_py, _codec_py = _default_paths(package_root)
    return ReactionGraph(
        core=extract_core_effects(mechanism_py),
        flat=extract_flat_effects(runtime_py),
        core_path=str(mechanism_py),
        flat_path=str(runtime_py),
    )


# ----------------------------------------------------------- PL50x checking
def _spec_module() -> Dict[str, EffectSet]:
    from repro.verify.reaction_spec import REACTION_SPEC

    return REACTION_SPEC


def _diff_effects(
    kind: str,
    impl_name: str,
    impl: EffectSet,
    spec: EffectSet,
    path: str,
    line: int,
    findings: List[Finding],
) -> None:
    """PL501 (spec effect missing from impl) / PL502 (undeclared effect)."""
    impl_sends = impl.send_map
    spec_sends = spec.send_map
    for skind, roles in sorted(spec_sends.items()):
        missing = roles - impl_sends.get(skind, frozenset())
        for role in sorted(missing):
            findings.append(
                Finding(
                    code="PL501",
                    path=path,
                    line=line,
                    message=(
                        f"{impl_name} handler for {kind!r} drops the declared "
                        f"send of {skind!r} to role {role!r}"
                    ),
                    hint=(
                        "the reaction spec declares this send; restore it or "
                        "update verify/reaction_spec.py with a rationale"
                    ),
                )
            )
    for skind, roles in sorted(impl_sends.items()):
        extra = roles - spec_sends.get(skind, frozenset())
        for role in sorted(extra):
            findings.append(
                Finding(
                    code="PL502",
                    path=path,
                    line=line,
                    message=(
                        f"{impl_name} handler for {kind!r} sends {skind!r} to "
                        f"role {role!r}, not declared by the reaction spec"
                    ),
                    hint="declare the send in verify/reaction_spec.py or remove it",
                )
            )
    for label, got, want in (
        ("emit", impl.emits, spec.emits),
        ("read of", impl.reads, spec.reads),
        ("write of", impl.writes, spec.writes),
    ):
        for item in sorted(want - got):
            findings.append(
                Finding(
                    code="PL501",
                    path=path,
                    line=line,
                    message=(
                        f"{impl_name} handler for {kind!r} lost the declared "
                        f"{label} {item!r}"
                    ),
                    hint=(
                        "the reaction spec declares this effect; restore it or "
                        "update verify/reaction_spec.py with a rationale"
                    ),
                )
            )
        for item in sorted(got - want):
            findings.append(
                Finding(
                    code="PL502",
                    path=path,
                    line=line,
                    message=(
                        f"{impl_name} handler for {kind!r} has undeclared "
                        f"{label} {item!r}"
                    ),
                    hint="declare the effect in verify/reaction_spec.py or remove it",
                )
            )
    for item in sorted(impl.unknown):
        findings.append(
            Finding(
                code="PL502",
                path=path,
                line=line,
                message=(
                    f"{impl_name} handler for {kind!r} has a non-node-local "
                    f"effect: {item}"
                ),
                hint=(
                    "handlers may only mutate their own node's state; shared "
                    "writes void the POR independence argument"
                ),
            )
        )


def check_reaction(
    package_root: Optional[Path] = None,
    project_root: Optional[Path] = None,
    spec: Optional[Dict[str, EffectSet]] = None,
) -> List[Finding]:
    """Run the PL50x rules; empty list when the reaction graph is clean.

    PL501  declared effect missing from an implementation (dropped send /
           emit / state access)
    PL502  implementation effect not declared by the spec (protocol drift,
           or a non-node-local write)
    PL503  spec names a state field / kind that does not exist (stale spec)
    PL504  core and flat handler effect sets disagree
    PL505  the reaction graph sends a kind with no wire-codec entry
    """
    mechanism_py, runtime_py, codec_py = _default_paths(package_root)
    findings: List[Finding] = []
    if not mechanism_py.is_file() or not runtime_py.is_file():
        return findings  # fixture tree without both impls: nothing to pin
    parse_guard: List[Finding] = []
    if (
        _parse(mechanism_py, _rel(mechanism_py, project_root), parse_guard) is None
        or _parse(runtime_py, _rel(runtime_py, project_root), parse_guard) is None
    ):
        return parse_guard
    if spec is None:
        spec = _spec_module()
    core = extract_core_effects(mechanism_py)
    flat = extract_flat_effects(runtime_py)
    core_rel = _rel(mechanism_py, project_root)
    flat_rel = _rel(runtime_py, project_root)
    spec_rel = "src/repro/verify/reaction_spec.py"

    # PL503: stale spec entries.
    for kind, eff in sorted(spec.items()):
        if kind not in MESSAGE_KINDS.values():
            findings.append(
                Finding(
                    code="PL503",
                    path=spec_rel,
                    line=1,
                    message=f"reaction spec declares unknown message kind {kind!r}",
                    hint="spec kinds must match core/messages.py kinds",
                )
            )
            continue
        for fieldname in sorted((eff.reads | eff.writes) - NODE_STATE_FIELDS):
            findings.append(
                Finding(
                    code="PL503",
                    path=spec_rel,
                    line=1,
                    message=(
                        f"reaction spec for {kind!r} names stale state field "
                        f"{fieldname!r}"
                    ),
                    hint=(
                        "valid fields are the normalized LeaseNode state set: "
                        + ", ".join(sorted(NODE_STATE_FIELDS))
                    ),
                )
            )
        for skind, roles in eff.sends:
            if skind not in MESSAGE_KINDS.values():
                findings.append(
                    Finding(
                        code="PL503",
                        path=spec_rel,
                        line=1,
                        message=(
                            f"reaction spec for {kind!r} declares a send of "
                            f"unknown kind {skind!r}"
                        ),
                        hint="spec send kinds must match core/messages.py kinds",
                    )
                )
            for role in roles:
                if role not in ROLES:
                    findings.append(
                        Finding(
                            code="PL503",
                            path=spec_rel,
                            line=1,
                            message=(
                                f"reaction spec for {kind!r} uses unknown "
                                f"role {role!r}"
                            ),
                            hint=f"roles are {ROLES}",
                        )
                    )
    for kind in sorted(set(core) | set(flat)):
        if kind not in spec:
            findings.append(
                Finding(
                    code="PL503",
                    path=spec_rel,
                    line=1,
                    message=(
                        f"handler for message kind {kind!r} exists but the "
                        "reaction spec has no entry for it"
                    ),
                    hint="add the kind to verify/reaction_spec.py",
                )
            )

    # PL501/PL502 against the spec, per implementation (flat: projected
    # onto its declared scope).
    for kind, eff in sorted(spec.items()):
        if kind in core:
            _diff_effects(kind, "core", core[kind], eff, core_rel, 1, findings)
        if kind in flat:
            _diff_effects(
                kind, "flat", flat[kind], flat_scope(eff), flat_rel, 1, findings
            )

    # PL504: core <-> flat drift on the flat scope, independent of the spec.
    if set(flat) != FLAT_KINDS:
        findings.append(
            Finding(
                code="PL504",
                path=flat_rel,
                line=1,
                message=(
                    f"the flat kernel receives {sorted(flat)} but the flat "
                    f"scope declares {sorted(FLAT_KINDS)}"
                ),
                hint="update the kernel's wire codes or FLAT_KINDS in verify/effects.py",
            )
        )
    for kind in sorted(set(core) & set(flat)):
        c, f = flat_scope(core[kind]), flat[kind]
        deltas: List[str] = []
        if c.send_map != f.send_map:
            deltas.append(f"sends core={c.to_dict()['sends']} flat={f.to_dict()['sends']}")
        if c.emits != f.emits:
            deltas.append(f"emits core={sorted(c.emits)} flat={sorted(f.emits)}")
        if c.writes != f.writes:
            deltas.append(f"writes core={sorted(c.writes)} flat={sorted(f.writes)}")
        if c.reads != f.reads:
            deltas.append(f"reads core={sorted(c.reads)} flat={sorted(f.reads)}")
        if deltas:
            findings.append(
                Finding(
                    code="PL504",
                    path=flat_rel,
                    line=1,
                    message=(
                        f"core and flat handlers for {kind!r} diverge: "
                        + "; ".join(deltas)
                    ),
                    hint=(
                        "the flat kernel must be effect-equivalent to the "
                        "reference automaton projected onto the flat scope "
                        "(DESIGN.md decision 13)"
                    ),
                )
            )

    # PL505: every kind the reaction graph sends must have a wire codec.
    if codec_py.is_file():
        codec_findings: List[Finding] = []
        codec_mod = _parse(codec_py, _rel(codec_py, project_root), codec_findings)
        if codec_mod is not None:
            from repro.verify.protolint import _codec_registered_names

            registered = _codec_registered_names(codec_mod)
            if registered is not None:
                kinds_by_class = {v: k for k, v in MESSAGE_KINDS.items()}
                wired = {
                    MESSAGE_KINDS[name]
                    for name in registered
                    if name in MESSAGE_KINDS
                }
                sent = {
                    skind
                    for eff in list(core.values()) + list(flat.values())
                    for skind, _roles in eff.sends
                }
                for skind in sorted(sent - wired):
                    cls_name = kinds_by_class.get(skind, skind)
                    findings.append(
                        Finding(
                            code="PL505",
                            path=_rel(codec_py, project_root),
                            line=1,
                            message=(
                                f"reaction graph sends {skind!r} but "
                                f"{cls_name} has no wire-codec entry"
                            ),
                            hint=(
                                "add an encode/decode pair to _ENCODERS / "
                                "_DECODERS in net/codec.py"
                            ),
                        )
                    )
    return findings


# ------------------------------------------------- derived POR independence
@dataclass(frozen=True)
class DerivedIndependence:
    """The POR independence relation derived from static footprints.

    Soundness argument (DESIGN.md decision 13): every handler effect is
    node-local state (``node_local``), and sends enqueue onto per-directed-
    edge FIFO queues whose relative order across distinct edges is not part
    of the network model.  Hence two message *deliveries at distinct
    destination nodes* read/write disjoint state and commute; everything
    else (same destination; request initiations, which flip the schedule's
    serial flag) is conservatively dependent.  If any handler has an
    unknown (non-node-local) effect the premise fails and the relation
    degrades to full dependence — sound, merely slower.
    """

    node_local: bool
    unknown_effects: Tuple[str, ...] = ()

    def independent(self, a: Tuple[object, ...], b: Tuple[object, ...]) -> bool:
        if not self.node_local:
            return False
        return a[0] == "deliver" and b[0] == "deliver" and a[2] != b[2]

    def to_dict(self) -> Dict[str, object]:
        return {
            "relation": "deliveries-at-distinct-nodes-commute",
            "node_local": self.node_local,
            "unknown_effects": list(self.unknown_effects),
        }


def _derive(graph: ReactionGraph) -> DerivedIndependence:
    unknown: List[str] = []
    for impl_name, table in (("core", graph.core), ("flat", graph.flat)):
        for kind, eff in sorted(table.items()):
            for item in sorted(eff.unknown):
                unknown.append(f"{impl_name}/{kind}: {item}")
            stray = (eff.reads | eff.writes) - NODE_STATE_FIELDS
            for item in sorted(stray):
                unknown.append(f"{impl_name}/{kind}: non-state field {item!r}")
    return DerivedIndependence(
        node_local=not unknown, unknown_effects=tuple(unknown)
    )


def derive_independence(graph: ReactionGraph) -> DerivedIndependence:
    """Derive the independence relation from an extracted reaction graph."""
    return _derive(graph)


@lru_cache(maxsize=1)
def derived_independence() -> DerivedIndependence:
    """The relation derived from the installed sources (cached: the source
    cannot change under a running process)."""
    return _derive(extract_reaction_graph())


# ------------------------------------------------------------------ artifact
def reaction_graph_json(package_root: Optional[Path] = None) -> str:
    """The full reaction-graph artifact: extracted effect sets, the golden
    spec, the derived independence relation, and any PL50x findings."""
    graph = extract_reaction_graph(package_root)
    spec = _spec_module()
    findings = check_reaction(package_root)
    payload = {
        "graph": graph.to_dict(),
        "spec": {k: e.to_dict() for k, e in sorted(spec.items())},
        "independence": _derive(graph).to_dict(),
        "findings": [f.to_dict() for f in findings],
        "ok": not findings,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
