"""Offline happens-before checking of recorded traces.

While :mod:`repro.verify.explore` checks all schedules of a small scope and
the ghost-log oracle (:mod:`repro.consistency.causal`) checks one live run
from *inside* the system, this module checks a run **post hoc from its
trace alone**: a JSONL file exported by :func:`repro.obs.export.
export_jsonl` (or any equal list of :class:`~repro.sim.trace.TraceEvent`)
is enough to re-derive the causal structure of the execution and validate
it — including traces recorded on systems where ghost logs were disabled.

**Declared losses.**  Crash and partition faults black-hole messages *by
design*, and every such casualty is announced in the trace as a
``delivery_failed`` event (the transports emit one for wire black-holes,
reliable-layer give-ups and crash-time conversation resets alike).  The
checker consumes each announced loss by retiring the first pending send of
the same message kind on the same edge, so declared casualties never count
as lost-message violations — only *silent* losses (a protocol bug) do.

Two families of checks:

**Exactly-once, per-edge FIFO delivery.**  Logical sends (``send`` events
whose message kind passes :func:`repro.obs.export.is_logical_kind` — frame
traffic of the reliability layer is excluded) are matched against delivery
events on the same directed edge in FIFO order.  ``deliver`` events are
used when the trace contains any (the reliable stack's payload-release
events); bare ``recv`` events otherwise.  A delivery with no matching send
is a duplicate; a kind mismatch is a FIFO reordering; an unmatched send at
end of trace is a loss.  Running this over a ``FaultyNetwork`` trace
*without* the reliability layer reports exactly the injected faults; over a
``ReliableNetwork`` trace it must come back clean — that is Theorem-style
evidence that the retransmission layer restores the paper's network model.

**Causal visibility of writes (Theorem 4).**  Vector clocks are rebuilt
from the trace: every event ticks its node's component, and each matched
delivery joins the sender's clock at the send.  Two clock families are
maintained, because message arrival alone does not imply *value*
visibility: the **full** clocks join on every delivery and order the
execution; the **payload** clocks join only on ``update``/``response``
deliveries — the messages that actually carry aggregate values and write
logs (a ``probe`` or ``release`` arriving from ``v`` does not make ``v``'s
writes visible).  For each completed unscoped combine the checker then
requires a consistent cut: per node, the latest write that
payload-precedes the ``combine_begin`` is a *lower bound* (it or a newer
write must be included), writes that the combine's completion fully
precedes are *excluded*, and anything between is optional (concurrent).
The combine's value must be achievable as the operator product of one
choice per node — decided by an achievable-value set DP (exact for SUM;
floats compared after rounding).

**Crash-touched nodes.**  A node with a ``node_crash`` event anywhere in
the trace gets a *relaxed* candidate set: every one of its writes (and
no-write) is admissible for every combine, except writes the combine's
completion precedes.  While the node is down its peers expire its leases
and serve combines that exclude its whole subtree, and which of those
histories a given combine observed cannot be recovered from the trace
alone.  What a restart keeps depends on the host:

* in the simulator a crash keeps ``val`` and ``upcntr`` (recovery restores
  only the checkpointed lease tables, views and policy bookkeeping), so no
  completed write is rolled back;
* a restarted ``serve-node`` builds its nodes fresh and no checkpoint
  holds ``val``, so the node's value is the operator's identity until it
  is written again, and its earlier writes drop out of later combines.

The relaxed rule admits both.  ROADMAP.md item 1 ("Crash recovery without
checkpoints") plans one crash contract for both hosts, under which this
rule can go.  Crash-free traces keep the strict lower-bound rule on every
node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

from repro.obs.export import is_logical_kind
from repro.ops.monoid import AggregationOperator
from repro.ops.standard import SUM
from repro.sim.trace import TraceEvent

__all__ = ["TraceViolation", "CausalReport", "check_trace"]

#: Message kinds whose delivery makes the sender's writes visible at the
#: receiver (they carry aggregate values / ghost write-logs).
PAYLOAD_KINDS = ("update", "response")

_ROUND = 9  # float comparison precision for aggregate values


@dataclass(frozen=True)
class TraceViolation:
    """One post-hoc violation found in a trace."""

    kind: str  # duplicate-delivery | fifo-order | lost-message | causal-visibility
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "message": self.message}


@dataclass
class CausalReport:
    """What was checked and what failed."""

    events: int = 0
    sends: int = 0
    deliveries: int = 0
    writes: int = 0
    combines_checked: int = 0
    declared_losses: int = 0
    delivery_kind: str = "recv"
    violations: List[TraceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "sends": self.sends,
            "deliveries": self.deliveries,
            "writes": self.writes,
            "combines_checked": self.combines_checked,
            "declared_losses": self.declared_losses,
            "delivery_kind": self.delivery_kind,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass
class _Send:
    msg: str
    full: Dict[int, int]
    pay: Dict[int, int]


@dataclass
class _Write:
    node: int
    arg: Any
    pay_own: int  # payload clock of its node at the write
    full: Dict[int, int]  # full clock of its node at the write


@dataclass
class _Combine:
    req: int
    node: int
    value: Any
    begin_pay: Optional[Dict[int, int]] = None
    comp_own: Optional[int] = None  # completion's own full-clock component


def check_trace(
    events: Sequence[TraceEvent],
    op: AggregationOperator = SUM,
    n_nodes: Optional[int] = None,
) -> CausalReport:
    """Check one recorded execution (see module doc).  ``events`` must be in
    emit order — which JSONL round-trips preserve bit-identically."""
    report = CausalReport(events=len(events))
    report.delivery_kind = (
        "deliver" if any(ev.kind == "deliver" for ev in events) else "recv"
    )

    vc_full: Dict[int, Dict[int, int]] = {}
    vc_pay: Dict[int, Dict[int, int]] = {}
    pending: Dict[Tuple[int, int], Deque[_Send]] = {}
    writes: Dict[int, List[_Write]] = {}
    begins: Dict[int, Dict[int, int]] = {}  # req -> payload clock at begin
    combines: List[_Combine] = []
    crashed: set = set()  # nodes whose writes get the relaxed candidate rule
    max_node = -1

    def tick(node: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        full = vc_full.setdefault(node, {})
        pay = vc_pay.setdefault(node, {})
        full[node] = full.get(node, 0) + 1
        pay[node] = pay.get(node, 0) + 1
        return full, pay

    def join(into: Dict[int, int], other: Dict[int, int]) -> None:
        for k, v in other.items():
            if v > into.get(k, 0):
                into[k] = v

    for ev in events:
        if ev.node >= 0:
            max_node = max(max_node, ev.node)
        if ev.kind == "send":
            msg = ev.detail.get("msg")
            if not isinstance(msg, str) or not is_logical_kind(msg):
                continue
            full, pay = tick(ev.node)
            report.sends += 1
            edge = (ev.node, ev.detail["dst"])
            pending.setdefault(edge, deque()).append(
                _Send(msg=msg, full=dict(full), pay=dict(pay))
            )
        elif ev.kind == report.delivery_kind:
            msg = ev.detail.get("msg")
            if not isinstance(msg, str) or not is_logical_kind(msg):
                continue
            full, pay = tick(ev.node)
            report.deliveries += 1
            edge = (ev.detail["src"], ev.node)
            queue = pending.get(edge)
            if not queue:
                report.violations.append(
                    TraceViolation(
                        kind="duplicate-delivery",
                        message=(
                            f"delivery of {msg!r} on edge {edge} has no "
                            "matching send (duplicate or phantom)"
                        ),
                    )
                )
                continue
            sent = queue.popleft()
            if sent.msg != msg:
                report.violations.append(
                    TraceViolation(
                        kind="fifo-order",
                        message=(
                            f"edge {edge}: delivered {msg!r} but FIFO order "
                            f"expected {sent.msg!r}"
                        ),
                    )
                )
            join(full, sent.full)
            if sent.msg in PAYLOAD_KINDS:
                join(pay, sent.pay)
        elif ev.kind == "delivery_failed":
            if ev.node >= 0:
                tick(ev.node)
            msg = ev.detail.get("msg")
            if not isinstance(msg, str) or not is_logical_kind(msg):
                continue  # frame-level casualty; retransmission covers it
            edge = (ev.node, ev.detail["dst"])
            queue = pending.get(edge)
            if queue:
                # Retire the first pending send of the announced kind.  A
                # declaration may race a delivery that already matched its
                # send (a segment delivered but unACKed at a crash-time
                # reset is re-declared); with no same-kind send pending the
                # announcement is simply stale — skip, never invent a
                # violation.
                for i, sent in enumerate(queue):
                    if sent.msg == msg:
                        del queue[i]
                        report.declared_losses += 1
                        break
        elif ev.kind == "write_done":
            full, pay = tick(ev.node)
            report.writes += 1
            writes.setdefault(ev.node, []).append(
                _Write(
                    node=ev.node,
                    arg=ev.detail.get("arg"),
                    pay_own=pay[ev.node],
                    full=dict(full),
                )
            )
        elif ev.kind == "combine_begin":
            _, pay = tick(ev.node)
            req = ev.detail.get("req")
            if isinstance(req, int) and ev.detail.get("scope") is None:
                begins[req] = dict(pay)
        elif ev.kind == "span":
            full, _ = tick(ev.node)
            d = ev.detail
            if (
                d.get("op") == "combine"
                and d.get("scope") is None
                and d.get("failure") is None
                and "value" in d
                and isinstance(d.get("req"), int)
            ):
                combines.append(
                    _Combine(
                        req=d["req"],
                        node=ev.node,
                        value=d["value"],
                        begin_pay=begins.get(d["req"]),
                        comp_own=full[ev.node],
                    )
                )
        elif ev.kind == "node_crash":
            crashed.add(ev.node)
            if ev.node >= 0:
                tick(ev.node)
        elif ev.node >= 0:
            tick(ev.node)

    for edge, queue in sorted(pending.items()):
        for sent in queue:
            report.violations.append(
                TraceViolation(
                    kind="lost-message",
                    message=f"send of {sent.msg!r} on edge {edge} was never delivered",
                )
            )

    total_nodes = n_nodes if n_nodes is not None else max_node + 1
    for c in combines:
        if c.begin_pay is None:
            continue  # initiation not in the trace window
        report.combines_checked += 1
        _check_combine(c, writes, total_nodes, op, report, crashed)
    return report


def _candidates(
    c: _Combine,
    node_writes: List[_Write],
    begin_pay: Dict[int, int],
    relaxed: bool = False,
) -> List[Any]:
    """Admissible contributions of one node to combine ``c``: the value of
    the latest payload-visible write, any newer non-excluded write, or
    no-write when nothing was mandatorily visible.  ``relaxed`` (crash-
    touched nodes) drops the lower bound: dead-window subtree exclusion,
    and on ``serve`` a restart's lost value, make every inclusion
    optional."""
    if relaxed:
        out: List[Any] = [None]
        for w in node_writes:
            if c.comp_own is not None and w.full.get(c.node, 0) >= c.comp_own:
                continue  # the combine completed before this write happened
            out.append(w.arg)
        return out
    mandatory = sum(1 for w in node_writes if w.pay_own <= begin_pay.get(w.node, 0))
    out: List[Any] = [] if mandatory else [None]
    for j, w in enumerate(node_writes):
        if j < mandatory - 1:
            continue  # overwritten by a later already-visible write
        if c.comp_own is not None and w.full.get(c.node, 0) >= c.comp_own:
            continue  # the combine completed before this write happened
        out.append(w.arg)
    return out


def _check_combine(
    c: _Combine,
    writes: Dict[int, List[_Write]],
    n_nodes: int,
    op: AggregationOperator,
    report: CausalReport,
    crashed: Optional[set] = None,
) -> None:
    assert c.begin_pay is not None

    def key(x: Any) -> Any:
        # Dedup key only — the kept values stay exact, so rounding never
        # accumulates across nodes (round-then-add drifts in the 9th
        # decimal after a few additions).
        return round(x, _ROUND) if isinstance(x, float) else x

    achievable: Dict[Any, Any] = {key(op.identity): op.identity}
    for node in range(n_nodes):
        cands = _candidates(
            c, writes.get(node, []), c.begin_pay,
            relaxed=bool(crashed) and node in crashed,
        )
        step: Dict[Any, Any] = {}
        for acc in achievable.values():
            for a in cands:
                s = op.combine(acc, op.identity if a is None else op.lift(a))
                step[key(s)] = s
        achievable = step
        if len(achievable) > 200_000:
            return  # scope too large to decide; stay silent rather than guess
    if isinstance(c.value, float):
        tol = 1e-6 * (1.0 + abs(c.value))
        ok = any(
            isinstance(s, float) and abs(s - c.value) <= tol
            for s in achievable.values()
        )
    else:
        ok = key(c.value) in achievable
    if not ok:
        report.violations.append(
            TraceViolation(
                kind="causal-visibility",
                message=(
                    f"combine req={c.req} at node {c.node} returned "
                    f"{c.value!r}, which no causally consistent cut of the "
                    "trace's writes can produce"
                ),
            )
        )
