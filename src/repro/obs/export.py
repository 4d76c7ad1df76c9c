"""JSONL trace export/import — record a run, ship it, re-inspect it.

One event per line, canonical JSON::

    {"t": 0.0, "kind": "send", "node": 0, "detail": {"dst": 1, "msg": "probe"}}

Canonicalization makes round-trips **lossless and bit-identical**: detail
values are JSON-sanitized once at export (sets/frozensets become sorted
lists, tuples become lists, non-string dict keys become strings, message
objects become their ``kind`` string), keys are serialized sorted, and
floats keep Python ``repr`` fidelity.  Therefore::

    dumps_events(import_jsonl(p)) == Path(p).read_text()

for any file this module wrote, and :func:`trace_diff` between a run's
live trace and its export→import round-trip reports zero differences.

The module is transport-free (stdlib ``json`` only) and is what the
``python -m repro trace`` CLI drives.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.trace import TraceEvent, TraceLog

PathLike = Union[str, Path]

#: Format tag written into error messages; bump on breaking schema change.
TRACE_FORMAT = "repro-trace/1"


def _jsonify(value: Any) -> Any:
    """Canonical JSON-safe form of one detail value (deterministic)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    kind = getattr(value, "kind", None)
    if kind is not None:
        return str(kind)
    return repr(value)


def event_to_dict(ev: TraceEvent) -> Dict[str, Any]:
    """Canonical JSON-safe dict for one event."""
    return {
        "t": float(ev.time),
        "kind": ev.kind,
        "node": ev.node,
        "detail": _jsonify(ev.detail),
    }


def event_from_dict(d: Dict[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_dict` (detail stays in canonical form)."""
    for key in ("t", "kind", "node"):
        if key not in d:
            raise ValueError(f"trace event missing {key!r}: {d!r}")
    return TraceEvent(
        time=float(d["t"]),
        kind=str(d["kind"]),
        node=int(d["node"]),
        detail=dict(d.get("detail") or {}),
    )


def _dump_line(ev: TraceEvent) -> str:
    return json.dumps(event_to_dict(ev), sort_keys=True, separators=(",", ":"))


def dumps_events(events: Iterable[TraceEvent]) -> str:
    """The JSONL text for an event stream."""
    return "".join(_dump_line(ev) + "\n" for ev in events)


def export_jsonl(trace: Union[TraceLog, Iterable[TraceEvent]], path: PathLike) -> int:
    """Write a trace as JSONL; returns the number of events written."""
    p = Path(path)
    n = 0
    with p.open("w") as fh:
        for ev in trace:
            fh.write(_dump_line(ev) + "\n")
            n += 1
    return n


def import_jsonl(path: PathLike) -> TraceLog:
    """Read a JSONL trace file back into a :class:`TraceLog`.

    Imported events carry canonical (JSON-shaped) detail values; a
    re-export is bit-identical to the original file.
    """
    log = TraceLog(enabled=True)
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid {TRACE_FORMAT} JSON: {exc}"
                ) from exc
            ev = event_from_dict(record)
            log.emit(ev.time, ev.kind, ev.node, **ev.detail)
    return log


# ------------------------------------------------------------------- diff
def trace_diff(
    a: Union[TraceLog, Iterable[TraceEvent]],
    b: Union[TraceLog, Iterable[TraceEvent]],
    limit: int = 20,
) -> List[str]:
    """Structural differences between two event streams (empty = identical).

    Events are compared in canonical JSON form, position by position, so a
    live trace and its export→import round-trip compare equal.  At most
    ``limit`` difference lines are rendered (a final line reports the
    remainder when truncated).
    """
    ea = [event_to_dict(ev) for ev in a]
    eb = [event_to_dict(ev) for ev in b]
    diffs: List[str] = []
    total = 0

    def add(msg: str) -> None:
        nonlocal total
        total += 1
        if len(diffs) < limit:
            diffs.append(msg)

    for i, (da, db) in enumerate(zip(ea, eb)):
        if da == db:
            continue
        fields = [
            k for k in ("t", "kind", "node", "detail")
            if da.get(k) != db.get(k)
        ]
        add(
            f"event {i}: differs in {', '.join(fields)} "
            f"(a={json.dumps(da, sort_keys=True)} b={json.dumps(db, sort_keys=True)})"
        )
    if len(ea) != len(eb):
        add(f"length mismatch: a has {len(ea)} events, b has {len(eb)}")
    if total > len(diffs):
        diffs.append(f"... and {total - len(diffs)} more difference(s)")
    return diffs


# ---------------------------------------------------------------- summary
#: Frame-level kinds the reliable layer puts on the wire; excluded from
#: logical-traffic summaries.
def is_logical_kind(msg: str) -> bool:
    """True for protocol message kinds (probe/response/update/release/...),
    False for recovery frames (``seg:*``) and ACKs."""
    return not (msg.startswith("seg:") or msg == "ack")


def edge_sends(trace: Iterable[TraceEvent], logical_only: bool = True) -> Dict[Tuple[int, int], int]:
    """Per-directed-edge logical send counts from a trace."""
    out: Dict[Tuple[int, int], int] = {}
    for ev in trace:
        if ev.kind != "send":
            continue
        msg = str(ev.detail.get("msg", ""))
        if logical_only and not is_logical_kind(msg):
            continue
        edge = (ev.node, int(ev.detail["dst"]))
        out[edge] = out.get(edge, 0) + 1
    return out


def top_edges(trace: Iterable[TraceEvent], top: int = 5) -> List[Tuple[Tuple[int, int], int]]:
    """The ``top`` undirected edges by logical message volume in a trace."""
    directed = edge_sends(trace)
    undirected: Dict[Tuple[int, int], int] = {}
    for (u, v), n in directed.items():
        key = (min(u, v), max(u, v))
        undirected[key] = undirected.get(key, 0) + n
    ranked = sorted(undirected.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


def trace_summary(trace: Union[TraceLog, Iterable[TraceEvent]]) -> Dict[str, Any]:
    """Machine-readable digest of a trace (what ``trace summarize`` prints).

    Includes event totals by kind, the virtual-time window, per-node event
    counts, logical message totals, the hottest edges, span/monitor rollups
    when present.
    """
    events = list(trace)
    by_kind: Dict[str, int] = {}
    by_node: Dict[int, int] = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    spans = 0
    failures = 0
    for ev in events:
        by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
        by_node[ev.node] = by_node.get(ev.node, 0) + 1
        t_min = ev.time if t_min is None else min(t_min, ev.time)
        t_max = ev.time if t_max is None else max(t_max, ev.time)
        if ev.kind == "span":
            spans += 1
            if ev.detail.get("failure"):
                failures += 1
    sends = edge_sends(events)
    return {
        "format": TRACE_FORMAT,
        "events": len(events),
        "time_window": [t_min if t_min is not None else 0.0,
                        t_max if t_max is not None else 0.0],
        "by_kind": dict(sorted(by_kind.items())),
        "nodes": len(by_node),
        "logical_messages": sum(sends.values()),
        "top_edges": [[list(e), n] for e, n in top_edges(events, top=5)],
        "spans": spans,
        "failed_spans": failures,
    }
