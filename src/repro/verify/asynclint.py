"""Async-safety lint (PL60x) for the live deployment layer ``repro.net``.

``python -m repro serve`` runs the lease automaton as real asyncio
processes (PR 9).  Everything shares one event loop, so the hazards are
not memory-model data races but *await-interleaving* ones: a blocking
call starves every peer connection; a fire-and-forget task can be
garbage-collected mid-flight or die with a swallowed exception; an
unbounded await on a dead peer wedges its task forever; and node state
touched from several tasks interleaves at await points unless it is
deliberately funneled through the single-writer queues.  All four are
invisible to tests that happen to win the race — and visible to AST
analysis, which is what this module does.  Like the rest of
:mod:`repro.verify`, it parses source and never imports the code under
test, so seeded-mutant fixtures lint like the real tree.

Rules:

PL601  blocking call reachable inside ``async def`` — ``time.sleep``,
       sync socket/pickle/file I/O — directly or through sync helper
       methods/functions it calls (move it to ``run_in_executor``)
PL602  coroutine scheduled with ``ensure_future``/``create_task`` as a
       bare expression statement: no retained reference, so the event
       loop holds the only (weak) ref and the task can vanish mid-flight
PL603  ``await`` on peer I/O (``open_connection``, ``readexactly``,
       ``readline``, ``readuntil``, ``drain``) without a bounding
       ``asyncio.wait_for`` / ``asyncio.timeout`` — a dead peer wedges
       the awaiting task forever
PL604  node/server state field written from more than one task root
       without being declared in the class's ``_ASYNC_SHARED`` set — the
       declaration is the reviewed license for multi-task mutation
PL605  stale ``_ASYNC_SHARED`` entry: declared, but not actually written
       from more than one task root

A *task root* is a method the class hands to the event loop as its own
task or callback: the argument of ``ensure_future``/``create_task``, or a
bare ``self.method`` reference passed as a callback (``start_server(
self._serve_conn, ...)``, ``call_soon(self._pump)``, an options-dict
value).  Writes are collected transitively through ``self.*`` helper
calls with the same alias tracking as :mod:`repro.verify.effects`; calls
that mutate a ``LeaseNode`` through a self-derived receiver
(``node.write(...)``, ``self.transport.deliver_remote(...)``) count as
writes to the pseudo-field ``"nodes"``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.verify.protolint import Finding, _parse, _python_files, _rel

__all__ = ["run_async_lint", "ASYNC_SHARED_ATTR"]

#: Class attribute naming the fields licensed for multi-task mutation.
ASYNC_SHARED_ATTR = "_ASYNC_SHARED"

#: ``module.function`` calls that block the event loop.
_BLOCKING_MODULE_CALLS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("time", "sleep"),
        ("socket", "create_connection"),
        ("socket", "getaddrinfo"),
        ("pickle", "dump"),
        ("pickle", "load"),
        ("json", "dump"),
        ("json", "load"),
        ("subprocess", "run"),
        ("subprocess", "call"),
        ("subprocess", "check_call"),
        ("subprocess", "check_output"),
        ("os", "system"),
        ("shutil", "rmtree"),
        ("shutil", "copyfile"),
    }
)

#: Method names that are synchronous file I/O on any receiver (pathlib).
_BLOCKING_ATTR_CALLS: FrozenSet[str] = frozenset(
    {"read_bytes", "read_text", "write_bytes", "write_text"}
)

#: Peer-I/O awaitables that must be bounded by a timeout (PL603).
_PEER_IO_ATTRS: FrozenSet[str] = frozenset(
    {"open_connection", "readexactly", "readline", "readuntil", "drain"}
)

#: Task-factory callables (PL602 / task-root detection).
_TASK_FACTORIES: FrozenSet[str] = frozenset({"ensure_future", "create_task"})

#: Calls that mutate LeaseNode / router state through a self-derived
#: receiver: pseudo-field ``"nodes"`` for PL604.
_NODE_STATE_METHODS: FrozenSet[str] = frozenset(
    {
        "deliver_remote",
        "route",
        "on_message",
        "write",
        "begin_combine",
        "begin_scoped_combine",
        "expire_taken",
        "expire_granted",
        "recover_reconcile",
        "crash_volatile",
        "send",
        # RecoveryManager entry points that run LeaseNode transitions
        "sweep",
        "handle_recover",
    }
)

#: Container/Event methods that mutate their receiver.
_MUTATORS: FrozenSet[str] = frozenset(
    {
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
        "set",
        "setdefault",
        "update",
    }
)

_FunctionDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_attr(expr: ast.expr) -> Optional[str]:
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


def _is_self_derived(expr: ast.expr, aliases: Set[str]) -> bool:
    """True when *expr* reaches an object owned by ``self`` — a ``self.X``
    chain (any depth) or a local alias bound from one."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
        ):
            return node.value.id == "self" or node.value.id in aliases
        node = node.value
    if isinstance(node, ast.Name):
        return node.id == "self" or node.id in aliases
    return False


def _blocking_reason(call: ast.Call) -> Optional[str]:
    fn = call.func
    if isinstance(fn, ast.Attribute):
        if isinstance(fn.value, ast.Name):
            key = (fn.value.id, fn.attr)
            if key in _BLOCKING_MODULE_CALLS:
                return f"{key[0]}.{key[1]}"
        if fn.attr in _BLOCKING_ATTR_CALLS:
            return f"<receiver>.{fn.attr}"
    return None


def _is_task_factory(call: ast.Call) -> bool:
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id in _TASK_FACTORIES
    if isinstance(fn, ast.Attribute):
        return fn.attr in _TASK_FACTORIES
    return False


# ------------------------------------------------------------- module index
class _ModuleIndex:
    """Top-level sync functions and per-class method tables."""

    def __init__(self, module: ast.Module) -> None:
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        self.methods: Dict[str, Dict[str, ast.FunctionDef]] = {}
        for node in module.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                table: Dict[str, ast.FunctionDef] = {}
                for item in node.body:
                    if isinstance(item, _FunctionDef):
                        table[item.name] = item
                self.methods[node.name] = table


# ------------------------------------------------------------------- PL601
def _find_blocking(
    fn: ast.FunctionDef,
    index: _ModuleIndex,
    class_name: Optional[str],
    chain: Tuple[str, ...],
    stack: FrozenSet[str],
    out: List[Tuple[int, str, Tuple[str, ...]]],
) -> None:
    """Collect (line, reason, chain) for blocking calls reachable from
    *fn*, recursing through sync ``self.*`` methods and same-module
    functions (never through ``async def`` callees — awaiting those is
    fine, and they are analyzed as entry points themselves)."""
    methods = index.methods.get(class_name or "", {})
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        reason = _blocking_reason(node)
        if reason is not None:
            out.append((node.lineno, reason, chain))
            continue
        callee: Optional[ast.FunctionDef] = None
        callee_name = ""
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            target = methods.get(node.func.attr)
            if isinstance(target, ast.FunctionDef):  # sync only
                callee, callee_name = target, f"self.{node.func.attr}"
        elif isinstance(node.func, ast.Name):
            target = index.functions.get(node.func.id)
            if isinstance(target, ast.FunctionDef):
                callee, callee_name = target, node.func.id
        if callee is not None and callee.name not in stack:
            _find_blocking(
                callee,
                index,
                class_name,
                chain + (callee_name,),
                stack | {callee.name},
                out,
            )


def _lint_blocking(
    module: ast.Module, index: _ModuleIndex, rel: str, findings: List[Finding]
) -> None:
    def check_async(fn: ast.AsyncFunctionDef, class_name: Optional[str]) -> None:
        qual = f"{class_name}.{fn.name}" if class_name else fn.name
        hits: List[Tuple[int, str, Tuple[str, ...]]] = []
        _find_blocking(fn, index, class_name, (), frozenset({fn.name}), hits)
        for line, reason, chain in sorted(hits):
            via = f" via {' -> '.join(chain)}" if chain else ""
            findings.append(
                Finding(
                    code="PL601",
                    path=rel,
                    line=line,
                    message=(
                        f"blocking call {reason}() reachable in "
                        f"async {qual}{via}"
                    ),
                    hint=(
                        "blocking I/O starves the event loop; move it to "
                        "loop.run_in_executor or an async equivalent"
                    ),
                )
            )

    for node in module.body:
        if isinstance(node, ast.AsyncFunctionDef):
            check_async(node, None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AsyncFunctionDef):
                    check_async(item, node.name)


# ------------------------------------------------------------------- PL602
def _lint_leaked_tasks(module: ast.Module, rel: str, findings: List[Finding]) -> None:
    for node in ast.walk(module):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and _is_task_factory(node.value)
        ):
            findings.append(
                Finding(
                    code="PL602",
                    path=rel,
                    line=node.lineno,
                    message=(
                        "task scheduled without a retained reference; the "
                        "event loop keeps only a weak ref, so it can be "
                        "garbage-collected mid-flight"
                    ),
                    hint=(
                        "assign the task and cancel/await it on shutdown "
                        "(e.g. append it to a pruned self._tasks list)"
                    ),
                )
            )


# ------------------------------------------------------------------- PL603
def _is_bounding_call(call: ast.Call) -> bool:
    fn = call.func
    name = fn.attr if isinstance(fn, ast.Attribute) else (
        fn.id if isinstance(fn, ast.Name) else ""
    )
    return name == "wait_for"


def _is_timeout_ctx(item: ast.withitem) -> bool:
    ctx = item.context_expr
    if isinstance(ctx, ast.Call):
        fn = ctx.func
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else ""
        )
        return name in {"timeout", "timeout_at"}
    return False


def _peer_io_name(call: ast.Call) -> Optional[str]:
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr in _PEER_IO_ATTRS:
        return fn.attr
    if isinstance(fn, ast.Name) and fn.id in _PEER_IO_ATTRS:
        return fn.id
    return None


def _lint_unbounded_awaits(
    module: ast.Module, rel: str, findings: List[Finding]
) -> None:
    def visit(node: ast.AST, bounded: bool) -> None:
        if isinstance(node, ast.AsyncWith) and any(
            _is_timeout_ctx(i) for i in node.items
        ):
            bounded = True
        if isinstance(node, ast.Await):
            value = node.value
            if isinstance(value, ast.Call):
                if _is_bounding_call(value):
                    for child in ast.iter_child_nodes(node):
                        visit(child, True)
                    return
                name = _peer_io_name(value)
                if name is not None and not bounded:
                    findings.append(
                        Finding(
                            code="PL603",
                            path=rel,
                            line=node.lineno,
                            message=(
                                f"unbounded await on peer I/O {name}(); a "
                                "dead peer wedges this task forever"
                            ),
                            hint=(
                                "wrap in asyncio.wait_for(...) or an "
                                "asyncio.timeout() block"
                            ),
                        )
                    )
        for child in ast.iter_child_nodes(node):
            visit(child, bounded)

    for node in ast.walk(module):
        if isinstance(node, ast.AsyncFunctionDef):
            for stmt in node.body:
                visit(stmt, False)


# ------------------------------------------------------------- PL604/PL605
def _declared_shared(cls: ast.ClassDef) -> Tuple[Optional[int], Set[str]]:
    """Line and contents of the class's ``_ASYNC_SHARED`` declaration."""
    for node in cls.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == ASYNC_SHARED_ATTR for t in targets
        ):
            continue
        names: Set[str] = set()
        assert value is not None
        for sub in ast.walk(value):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)
        return node.lineno, names
    return None, set()


def _task_roots(cls: ast.ClassDef, methods: Dict[str, ast.FunctionDef]) -> Set[str]:
    roots: Set[str] = set()
    call_funcs: Set[int] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Call):
            call_funcs.add(id(node.func))
            if _is_task_factory(node) and node.args:
                arg = node.args[0]
                if (
                    isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Attribute)
                    and isinstance(arg.func.value, ast.Name)
                    and arg.func.value.id == "self"
                    and arg.func.attr in methods
                ):
                    roots.add(arg.func.attr)
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in methods
            and id(node) not in call_funcs
        ):
            roots.add(node.attr)
    return roots


def _collect_writes(
    method: str,
    methods: Dict[str, ast.FunctionDef],
    stack: FrozenSet[str],
    writes: Set[str],
) -> None:
    """Self-attribute fields written by *method*, transitively through
    ``self.*`` helper calls, with local-alias tracking."""
    fn = methods.get(method)
    if fn is None or method in stack:
        return
    stack = stack | {method}
    # local name -> the self attribute it aliases (e.g. ``queue =
    # self._out_queues[peer]`` -> "_out_queues"; ``node = self.nodes[nid]``
    # -> "nodes", so node.write(...) is attributed to the node table).
    aliases: Dict[str, str] = {}

    def note_store(target: ast.expr) -> None:
        attr = _self_attr(target)
        if attr is not None:
            writes.add(attr)

    def bind_alias(target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            attr = _self_attr(value)
            if attr is not None:
                aliases[target.id] = attr
            else:
                aliases.pop(target.id, None)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)
                and len(node.targets[0].elts) == len(node.value.elts)
            ):
                for t, v in zip(node.targets[0].elts, node.value.elts):
                    note_store(t)
                    bind_alias(t, v)
                continue
            for target in node.targets:
                note_store(target)
                bind_alias(target, node.value)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            note_store(node.target)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                note_store(t)
        elif isinstance(node, ast.Call):
            fn_expr = node.func
            if not isinstance(fn_expr, ast.Attribute):
                continue
            # self.helper(...) recursion
            if (
                isinstance(fn_expr.value, ast.Name)
                and fn_expr.value.id == "self"
                and fn_expr.attr in methods
            ):
                _collect_writes(fn_expr.attr, methods, stack, writes)
                continue
            # node-state mutation through a self-derived receiver
            if fn_expr.attr in _NODE_STATE_METHODS and _is_self_derived(
                fn_expr.value, set(aliases)
            ):
                writes.add("nodes")
                continue
            # container/Event mutator on self state or a self-derived alias
            if fn_expr.attr in _MUTATORS:
                attr = _self_attr(fn_expr.value)
                if attr is not None:
                    writes.add(attr)
                else:
                    base = fn_expr.value
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    if isinstance(base, ast.Name) and base.id in aliases:
                        writes.add(aliases[base.id])


def _lint_shared_state(
    module: ast.Module, index: _ModuleIndex, rel: str, findings: List[Finding]
) -> None:
    for class_name, cls in index.classes.items():
        methods = index.methods[class_name]
        roots = _task_roots(cls, methods)
        if not roots:
            continue
        writers: Dict[str, Set[str]] = {}
        for root in sorted(roots):
            writes: Set[str] = set()
            _collect_writes(root, methods, frozenset(), writes)
            for fieldname in writes:
                writers.setdefault(fieldname, set()).add(root)
        decl_line, declared = _declared_shared(cls)
        multi = {f for f, rs in writers.items() if len(rs) >= 2}
        for fieldname in sorted(multi - declared):
            roots_str = ", ".join(sorted(writers[fieldname]))
            findings.append(
                Finding(
                    code="PL604",
                    path=rel,
                    line=cls.lineno,
                    message=(
                        f"{class_name}.{fieldname} is written from multiple "
                        f"task roots ({roots_str}) without an "
                        f"{ASYNC_SHARED_ATTR} declaration"
                    ),
                    hint=(
                        "route the mutation through the single-writer queue, "
                        f"or declare the field in {class_name}."
                        f"{ASYNC_SHARED_ATTR} with a comment arguing why the "
                        "interleaving is safe"
                    ),
                )
            )
        for fieldname in sorted(declared - multi):
            findings.append(
                Finding(
                    code="PL605",
                    path=rel,
                    line=decl_line or cls.lineno,
                    message=(
                        f"stale {ASYNC_SHARED_ATTR} entry {fieldname!r} on "
                        f"{class_name}: not written from multiple task roots"
                    ),
                    hint="remove the entry so the declaration stays an "
                    "accurate license list",
                )
            )


# -------------------------------------------------------------------- driver
def run_async_lint(
    package_root: Optional[Path] = None,
    project_root: Optional[Path] = None,
    paths: Optional[Sequence[Path]] = None,
) -> List[Finding]:
    """Run PL601–PL605 over ``repro/net`` (or explicit *paths*)."""
    if paths is None:
        if package_root is None:
            import repro

            package_root = Path(repro.__file__).resolve().parent
        net_root = Path(package_root) / "net"
        if not net_root.is_dir():
            return []
        paths = _python_files(net_root)
    findings: List[Finding] = []
    for path in paths:
        rel = _rel(Path(path), project_root)
        module = _parse(Path(path), rel, findings)
        if module is None:
            continue
        index = _ModuleIndex(module)
        _lint_blocking(module, index, rel, findings)
        _lint_leaked_tasks(module, rel, findings)
        _lint_unbounded_awaits(module, rel, findings)
        _lint_shared_state(module, index, rel, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings
