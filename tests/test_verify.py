"""Tests for the protocol verification toolkit (repro.verify).

Three layers:

* unit tests of the runtime hooks the toolkit drives (canonical snapshots,
  runtime forking, frontier enumeration);
* the analyzers themselves — lint rules against deliberately broken
  fixtures, the model checker against seeded protocol mutations, the trace
  checker against tampered traces;
* the *dynamic twins* of the lint rules: what PL101/PL201/PL202 prove for
  every call site, these prove for every executed event of real engine
  runs (dispatch completeness via live subclass walking, schema
  conformance via strict TraceLogs).
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.core.engine import AggregationSystem, ScheduledRequest, reliable_concurrent_system
from repro.core.mechanism import LeaseNode
from repro.core.messages import Message, Release, Update
from repro.core.policies import AlwaysLeasePolicy
from repro.core.runtime import NodeRuntime
from repro.obs.export import export_jsonl, import_jsonl
from repro.sim.channel import constant_latency
from repro.sim.faults import FaultPlan
from repro.sim.reliability import ReliabilityConfig
from repro.sim.trace import EVENT_SCHEMAS, TraceEvent
from repro.tree.generators import path_tree, star_tree
from repro.util import canonical_value
from repro.verify.causal import check_trace
from repro.verify.explore import Explorer, OpSpec, default_script, parse_script
from repro.verify.protolint import run_lint
from repro.workloads.requests import combine, write


# --------------------------------------------------------------- runtime hooks
class TestRuntimeHooks:
    def test_canonical_value_erases_container_order(self):
        assert canonical_value({3, 1, 2}) == canonical_value({2, 3, 1})
        assert canonical_value({"b": 1, "a": 2}) == canonical_value({"a": 2, "b": 1})
        assert canonical_value([1, 2]) != canonical_value([2, 1])
        assert hash(canonical_value({"x": [1, {2, 3}]})) is not None

    def test_canonical_value_distinguishes_messages(self):
        a = Update(x=1.0, id=3, wlog=None)
        b = Update(x=2.0, id=3, wlog=None)
        assert canonical_value(a) != canonical_value(b)
        assert canonical_value(a) == canonical_value(Update(x=1.0, id=3, wlog=None))

    def test_state_snapshot_is_deterministic_and_sensitive(self):
        rt1 = NodeRuntime(path_tree(3), ghost=True)
        rt2 = NodeRuntime(path_tree(3), ghost=True)
        assert rt1.state_snapshot() == rt2.state_snapshot()
        rt1.nodes[0].write(write(0, 7.0))
        rt1.drain()
        assert rt1.state_snapshot() != rt2.state_snapshot()

    def test_fork_isolates_branches(self):
        rt = NodeRuntime(path_tree(3), ghost=True)
        rt.nodes[0].write(write(0, 5.0))
        rt.drain()
        before = rt.state_snapshot()
        clone = rt.fork()
        q = combine(2)
        clone.nodes[2].begin_combine(q, lambda r: None)
        clone.drain()
        assert q.retval == 5.0
        assert rt.state_snapshot() == before
        assert clone.state_snapshot() != before

    def test_frontier_enumeration_preserves_edge_fifo(self):
        rt = NodeRuntime(path_tree(3))
        q = combine(0)
        rt.nodes[0].begin_combine(q, lambda r: None)
        assert rt.network.pending_edges() == [(0, 1)]
        rt.network.deliver_next(0, 1)
        assert rt.network.pending_edges() == [(1, 2)]
        with pytest.raises(ValueError):
            rt.network.deliver_next(0, 1)
        while rt.network.pending_edges():
            src, dst = rt.network.pending_edges()[0]
            rt.network.deliver_next(src, dst)
        assert q.index >= 0
        rt.check_quiescent_invariants()

    def test_pending_snapshot_ignores_cross_edge_interleaving(self):
        # Same multiset of per-edge messages, different global arrival
        # order, must hash equal: the explorer's independence relation
        # relies on it.
        rt1 = NodeRuntime(star_tree(3))
        rt2 = NodeRuntime(star_tree(3))
        rt1.network.send(1, 0, Update(x=1.0, id=1, wlog=None))
        rt1.network.send(2, 0, Update(x=2.0, id=1, wlog=None))
        rt2.network.send(2, 0, Update(x=2.0, id=1, wlog=None))
        rt2.network.send(1, 0, Update(x=1.0, id=1, wlog=None))
        assert rt1.network.pending_snapshot() == rt2.network.pending_snapshot()


# ------------------------------------------------------------------- protolint
_FIXTURE_TRACE = textwrap.dedent(
    """
    EVENT_SCHEMAS = {
        "send": ("dst", "msg"),
        "write_done": ("arg",),
    }
    """
)

_FIXTURE_MESSAGES = textwrap.dedent(
    """
    class Message:
        pass

    class Probe(Message):
        pass

    class Flush(Message):
        pass
    """
)

_FIXTURE_MECHANISM = textwrap.dedent(
    """
    class LeaseNode:
        _DISPATCH = {}

        def _on_probe(self, src, msg):
            pass

    LeaseNode._DISPATCH.update({Probe: LeaseNode._on_probe})
    """
)


def _fixture_pkg(tmp_path, **files):
    """Build a minimal fake package tree for lint-fixture tests."""
    root = tmp_path / "pkg"
    defaults = {
        "core/messages.py": _FIXTURE_MESSAGES,
        "core/mechanism.py": _FIXTURE_MECHANISM,
        "sim/trace.py": _FIXTURE_TRACE,
    }
    defaults.update(files)
    for rel, text in defaults.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


class TestProtolint:
    def test_repo_is_clean(self):
        findings = run_lint()
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_missing_dispatch_handler_is_pl101(self, tmp_path):
        root = _fixture_pkg(tmp_path)
        findings = run_lint(package_root=root, project_root=tmp_path)
        codes = {(f.code, f.path.rsplit("/", 1)[-1]) for f in findings}
        assert ("PL101", "messages.py") in codes
        [pl101] = [f for f in findings if f.code == "PL101"]
        assert "Flush" in pl101.message

    def test_registered_subclass_ancestor_counts_as_covered(self, tmp_path):
        # FastProbe(Probe) resolves through the MRO slow path, so it must
        # not be flagged when only Probe is registered.
        messages = _FIXTURE_MESSAGES + textwrap.dedent(
            """
            class FastProbe(Probe):
                pass
            """
        )
        root = _fixture_pkg(tmp_path, **{"core/messages.py": messages})
        findings = run_lint(package_root=root, project_root=tmp_path)
        assert all("FastProbe" not in f.message for f in findings)

    def test_emit_rules_pl201_pl202(self, tmp_path):
        emitter = textwrap.dedent(
            """
            def run(trace, value):
                trace.emit(0.0, "sendx", 1, dst=2, msg="probe")
                trace.emit(0.0, "send", 1, dst=2)
                trace.emit(0.0, "write_done", 1, arg=value)
                trace.emit(0.0, value, 1)
                trace.emit(0.0, "send", 1, **value)
            """
        )
        root = _fixture_pkg(tmp_path, **{"core/emitter.py": emitter})
        findings = run_lint(package_root=root, project_root=tmp_path)
        by_code = {}
        for f in findings:
            by_code.setdefault(f.code, []).append(f)
        assert len(by_code.get("PL201", [])) == 1
        assert "sendx" in by_code["PL201"][0].message
        assert len(by_code.get("PL202", [])) == 1
        assert "msg" in by_code["PL202"][0].message

    def test_layering_rules_pl301_pl302(self, tmp_path):
        root = _fixture_pkg(
            tmp_path,
            **{
                "sim/bad.py": "from repro.core.mechanism import LeaseNode\n",
                "obs/ok.py": "from repro.sim.trace import TraceLog\n"
                "from repro.sim.stats import MessageStats\n",
                "obs/bad.py": "from repro.sim.transport import TransportConfig\n"
                "from repro.sim import channel\n",
            },
        )
        findings = run_lint(package_root=root, project_root=tmp_path)
        assert sum(1 for f in findings if f.code == "PL301") == 1
        pl302 = [f for f in findings if f.code == "PL302"]
        assert len(pl302) == 2
        assert all(f.path.endswith("bad.py") for f in pl302)

    def test_removed_modules_pl401(self, tmp_path):
        # The policy shims were deleted outright; any import of them —
        # even inside a file named like the old shim — is flagged.
        root = _fixture_pkg(
            tmp_path,
            **{
                "core/legacy_user.py": "from repro.core.policy import LeasePolicy\n",
                "core/policy.py": "from repro.core.rww import RWWPolicy\n",
            },
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_old.py").write_text(
            "from repro.core.rww import RWWPolicy\n", encoding="utf-8"
        )
        findings = run_lint(package_root=root, project_root=tmp_path)
        pl401 = [f for f in findings if f.code == "PL401"]
        assert {f.path.rsplit("/", 1)[-1] for f in pl401} == {
            "legacy_user.py",
            "policy.py",
            "test_old.py",
        }
        assert all("removed module" in f.message for f in pl401)

    def test_syntax_error_reported_not_raised(self, tmp_path):
        root = _fixture_pkg(tmp_path, **{"core/broken.py": "def f(:\n"})
        findings = run_lint(package_root=root, project_root=tmp_path)
        assert any(f.code == "PL000" for f in findings)

    def test_findings_are_json_serializable(self, tmp_path):
        root = _fixture_pkg(tmp_path)
        findings = run_lint(package_root=root, project_root=tmp_path)
        data = json.loads(json.dumps([f.to_dict() for f in findings]))
        assert data and all(
            set(d) == {"code", "path", "line", "message", "hint"} for d in data
        )


# -------------------------------------------------------------- model checking
class _StaleUpdateNode(LeaseNode):
    """Seeded bug: T5 forgets to refresh ``aval[w]`` from the update."""

    def _t5_update_broken(self, w, msg):
        self.policy.update_rcvd(self, w)
        if self.ghost is not None and msg.wlog is not None:
            self.ghost.merge(w, msg.wlog)
        self.uaw[w].add(msg.id)
        if [v for v in self.grntd() if v != w]:
            nid = self.newid()
            if w not in self.sntupdates:
                self.sntupdates[w] = ([], [])
            nids, rcvids = self.sntupdates[w]
            nids.append(nid)
            rcvids.append(msg.id)
            self._forwardupdates(w, nid)
        else:
            self._forwardrelease()


_StaleUpdateNode._DISPATCH = {
    **LeaseNode._DISPATCH,
    Update: _StaleUpdateNode._t5_update_broken,
}


class _IgnoreReleaseNode(LeaseNode):
    """Seeded bug: T6 forgets to clear ``granted[w]`` on a release."""

    def _t6_release_broken(self, w, msg):
        self.policy.release_rcvd(self, w)
        self._onrelease(w, msg.S)


_IgnoreReleaseNode._DISPATCH = {
    **LeaseNode._DISPATCH,
    Release: _IgnoreReleaseNode._t6_release_broken,
}


class _StaleLeaseRecoveryNode(LeaseNode):
    """Seeded bug: recovery trusts the pre-crash lease tables verbatim —
    no voiding, no Release/Revoke to the peers, no re-probe."""

    def recover_reconcile(self):
        pass


class TestExplorer:
    def test_script_parsing_round_trip(self):
        script = parse_script(" w0=1.5, c2 ,w1=-2,c0 ")
        assert script == [
            OpSpec("write", 0, 1.5),
            OpSpec("combine", 2),
            OpSpec("write", 1, -2.0),
            OpSpec("combine", 0),
        ]
        with pytest.raises(ValueError):
            parse_script("z3")
        with pytest.raises(ValueError):
            parse_script("w1")

    def test_script_parsing_crash_recover_tokens(self):
        script = parse_script("w0=1,k0, r0 ,c1")
        assert script == [
            OpSpec("write", 0, 1.0),
            OpSpec("crash", 0),
            OpSpec("recover", 0),
            OpSpec("combine", 1),
        ]
        # str() round-trips through the parser for every token kind.
        assert parse_script(",".join(str(s) for s in script)) == script
        with pytest.raises(ValueError):
            parse_script("k")
        with pytest.raises(ValueError):
            parse_script("rx")

    def test_script_nodes_must_be_in_tree(self):
        with pytest.raises(ValueError):
            Explorer(path_tree(2), parse_script("w5=1"))

    def test_three_node_four_op_scope_is_exhaustive_and_clean(self):
        result = Explorer(path_tree(3), default_script(3, 4)).run()
        assert result.ok
        assert not result.truncated
        assert result.states > 10
        assert result.terminals >= 1
        assert result.serial_terminals >= 1
        assert 0.0 <= result.reduction_ratio < 1.0
        # The reported counters reconcile: every candidate transition was
        # either executed or pruned by a sleep set.
        assert result.transitions + result.slept >= result.states - 1

    def test_always_lease_star_scope_is_clean(self):
        script = parse_script("c0,w1=1,c2,w2=3,c0")
        result = Explorer(
            star_tree(3), script, policy_factory=AlwaysLeasePolicy
        ).run()
        assert result.ok
        assert result.states > 50

    def test_truncation_is_reported_not_silent(self):
        result = Explorer(path_tree(3), default_script(3, 4), max_states=5).run()
        assert result.truncated
        assert not result.ok

    def test_stale_update_mutation_is_caught(self):
        script = parse_script("c1,w0=1,c1,c2")
        healthy = Explorer(
            path_tree(3), script, policy_factory=AlwaysLeasePolicy
        ).run()
        assert healthy.ok
        broken = Explorer(
            path_tree(3),
            script,
            policy_factory=AlwaysLeasePolicy,
            node_cls=_StaleUpdateNode,
        ).run()
        assert not broken.ok
        kinds = {v.kind for v in broken.violations}
        assert "strict" in kinds or "causal" in kinds
        # Every violation comes with a replayable counterexample schedule.
        assert all(v.schedule for v in broken.violations)

    def test_ignored_release_mutation_violates_lemma(self):
        # RWW breaks the lease after repeated writes, sending a Release
        # the broken grantor ignores — taken/granted symmetry (Lemma 3.1)
        # must then fail at some quiescent point.
        script = parse_script("c0,w1=1,c0,w1=2,w1=3")
        broken = Explorer(path_tree(2), script, node_cls=_IgnoreReleaseNode).run()
        assert not broken.ok
        assert any(v.kind == "lemma" for v in broken.violations)
        assert any("3.1" in v.message for v in broken.violations)

    def test_crash_recover_scope_is_clean(self):
        # Crash/recover mid-script on a 3-node path: requests killed by the
        # crash are excluded from the oracles, reconciliation restores the
        # lemmas, and every surviving request stays causally consistent.
        script = parse_script("c0,w1=7,k0,r0,w1=9,c0")
        result = Explorer(path_tree(3), script).run()
        assert result.ok
        assert result.states > 50
        assert result.terminals >= 1

    def test_crash_recover_on_star_scope_is_clean(self):
        script = parse_script("w1=2,c0,k1,r1,c2")
        result = Explorer(
            star_tree(3), script, policy_factory=AlwaysLeasePolicy
        ).run()
        assert result.ok

    def test_initiation_at_crashed_node_fast_fails(self):
        # A write scheduled while its node is down fails instead of hanging;
        # the completion oracle must not flag it.
        script = parse_script("k1,w1=5,r1,c0")
        result = Explorer(path_tree(2), script).run()
        assert result.ok
        assert not any(v.kind == "completion" for v in result.violations)

    def test_stale_lease_recovery_mutation_is_caught(self):
        # Seeded stale-lease mutant: recovery trusts the pre-crash lease
        # tables verbatim (skips the reconciliation round).  The explorer
        # must find a schedule where the surviving granter still believes
        # the crashed-and-recovered holder has the lease — Lemma 3.1 —
        # and report it with a replayable counterexample.
        script = parse_script("c0,w1=7,k0,r0,w1=9,c0")
        healthy = Explorer(path_tree(3), script).run()
        assert healthy.ok
        broken = Explorer(
            path_tree(3), script, node_cls=_StaleLeaseRecoveryNode
        ).run()
        assert not broken.ok
        assert any(
            v.kind == "lemma" and "3.1" in v.message for v in broken.violations
        )
        assert all(v.schedule for v in broken.violations)
        # The counterexample includes the fault transitions themselves.
        first = broken.violations[0].schedule
        assert "op k0" in first and "op r0" in first


# -------------------------------------------------------------- trace checking
def _sequential_trace(tmp_path, n_nodes=4, n_requests=14, seed=2):
    import random

    tree = path_tree(n_nodes)
    system = AggregationSystem(tree, trace_enabled=True, ghost=True)
    rng = random.Random(seed)
    for i in range(n_requests):
        if rng.random() < 0.5:
            system.execute(write(rng.randrange(n_nodes), float(i + 1)))
        else:
            system.execute(combine(rng.randrange(n_nodes)))
    path = tmp_path / "trace.jsonl"
    export_jsonl(system.trace, str(path))
    return path


class TestCausalTraceChecker:
    def test_sequential_trace_is_clean(self, tmp_path):
        events = list(import_jsonl(str(_sequential_trace(tmp_path))))
        report = check_trace(events)
        assert report.ok, [v.to_dict() for v in report.violations]
        assert report.sends == report.deliveries > 0
        assert report.combines_checked > 0
        assert report.delivery_kind == "recv"

    def test_reliable_chaos_trace_is_clean(self):
        tree = path_tree(3)
        system = reliable_concurrent_system(
            tree,
            FaultPlan(drop_prob=0.1, duplicate_prob=0.05, reorder_prob=0.1, seed=7),
            config=ReliabilityConfig(
                base_timeout=6.0, backoff=1.5, max_timeout=20.0,
                combine_deadline=600.0,
            ),
            latency=constant_latency(1.0),
            trace_enabled=True,
        )
        schedule = [
            ScheduledRequest(time=600.0 * i, request=q)
            for i, q in enumerate(
                [write(0, 1.0), combine(2), write(2, 3.0), combine(0)]
            )
        ]
        system.run(schedule)
        report = check_trace(list(system.trace))
        assert report.delivery_kind == "deliver"
        assert report.ok, [v.to_dict() for v in report.violations]

    def test_combine_past_the_achievable_cap_is_undecided(self):
        """Five nodes write eleven times each, concurrently with one combine:
        12**5 achievable sums pass the 200,000 cap, so the combine is
        reported undecided and never counted as checked."""
        events = [TraceEvent(0.0, "combine_begin", 0, {"req": 0})]
        for node in range(1, 6):
            events += [TraceEvent(0.0, "write_done", node, {"arg": (i + 1) * 100**node})
                       for i in range(11)]
        events.append(TraceEvent(1.0, "span", 0, {"req": 0, "op": "combine", "start": 0.0,
                                                  "end": 1.0, "messages": 0, "value": 0}))
        report = check_trace(events, n_nodes=6)
        assert (report.combines_checked, report.combines_undecided) == (0, 1)
        assert report.to_dict()["combines_undecided"] == 1
        assert report.ok  # undecided is not a violation (ROADMAP item 3)

    def test_dropped_delivery_is_lost_message(self, tmp_path):
        events = list(import_jsonl(str(_sequential_trace(tmp_path))))
        recv_idx = next(i for i, ev in enumerate(events) if ev.kind == "recv")
        report = check_trace(events[:recv_idx] + events[recv_idx + 1 :])
        assert any(v.kind in ("lost-message", "fifo-order") for v in report.violations)

    def test_duplicated_delivery_is_flagged(self, tmp_path):
        events = list(import_jsonl(str(_sequential_trace(tmp_path))))
        recv_idx = next(i for i, ev in enumerate(events) if ev.kind == "recv")
        doubled = events[: recv_idx + 1] + [events[recv_idx]] + events[recv_idx + 1 :]
        report = check_trace(doubled)
        assert any(
            v.kind in ("duplicate-delivery", "fifo-order") for v in report.violations
        )

    def test_tampered_combine_value_is_causal_violation(self, tmp_path):
        from repro.sim.trace import TraceEvent

        events = list(import_jsonl(str(_sequential_trace(tmp_path))))
        tampered = []
        hit = False
        for ev in events:
            if (
                not hit
                and ev.kind == "span"
                and ev.detail.get("op") == "combine"
                and "value" in ev.detail
            ):
                detail = dict(ev.detail)
                detail["value"] = detail["value"] + 1234.5
                ev = TraceEvent(time=ev.time, kind=ev.kind, node=ev.node, detail=detail)
                hit = True
            tampered.append(ev)
        assert hit
        report = check_trace(tampered)
        assert any(v.kind == "causal-visibility" for v in report.violations)


# ------------------------------------------------------------- dynamic twins
def _all_message_subclasses():
    out, stack = [], [Message]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            out.append(sub)
            stack.append(sub)
    return out


class TestDynamicTwins:
    def test_every_message_subclass_dispatches(self):
        # Dynamic twin of PL101: live subclass walk instead of AST walk.
        subclasses = _all_message_subclasses()
        assert subclasses, "no Message subclasses found"
        for cls in subclasses:
            handler = LeaseNode._DISPATCH.get(cls) or LeaseNode._resolve_handler(cls)
            assert callable(handler), f"{cls.__name__} has no dispatch handler"

    def test_sequential_engine_emits_schema_conformant_events(self):
        # Dynamic twin of PL201/PL202: a strict TraceLog raises on any
        # unknown kind or missing field actually emitted.
        tree = path_tree(4)
        system = AggregationSystem(tree, trace_enabled=True, ghost=True)
        system.trace.strict = True
        for i in range(4):
            system.execute(write(i, float(i)))
            system.execute(combine((i + 1) % 4))
        assert len(system.trace) > 0
        assert all(ev.kind in EVENT_SCHEMAS for ev in system.trace)

    def test_reliable_chaos_engine_emits_schema_conformant_events(self):
        tree = path_tree(3)
        system = reliable_concurrent_system(
            tree,
            FaultPlan(drop_prob=0.15, duplicate_prob=0.1, reorder_prob=0.1, seed=9),
            config=ReliabilityConfig(
                base_timeout=6.0, backoff=1.5, max_timeout=20.0,
                combine_deadline=500.0,
            ),
            latency=constant_latency(1.0),
            trace_enabled=True,
        )
        system.trace.strict = True
        system.run(
            [
                ScheduledRequest(time=500.0 * i, request=q)
                for i, q in enumerate(
                    [write(0, 2.0), combine(2), write(1, 4.0), combine(0)]
                )
            ]
        )
        kinds = {ev.kind for ev in system.trace}
        assert "fault" in kinds  # the sweep actually exercised fault events


# ------------------------------------------------------------------------ CLI
class TestVerifyCLI:
    def test_lint_clean(self, capsys):
        from repro.cli import main

        assert main(["verify", "lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json(self, capsys):
        from repro.cli import main

        assert main(["verify", "lint", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_explore_default_scope(self, capsys):
        from repro.cli import main

        assert main(["verify", "explore", "--nodes", "3", "--max-ops", "4"]) == 0
        out = capsys.readouterr().out
        assert "states explored" in out
        assert "reduction ratio" in out

    def test_explore_json_and_script(self, capsys):
        from repro.cli import main

        rc = main(
            ["verify", "explore", "--nodes", "2", "--script", "w0=1,c1", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["states"] > 0
        assert data["script"] == ["w0=1", "c1"]
        assert "reduction_ratio" in data

    def test_causal_clean_and_tampered(self, tmp_path, capsys):
        from repro.cli import main

        path = _sequential_trace(tmp_path)
        assert main(["verify", "causal", str(path)]) == 0
        capsys.readouterr()
        # Drop one recv line: the checker must now fail.
        lines = path.read_text().splitlines(keepends=True)
        drop = next(i for i, line in enumerate(lines) if '"recv"' in line)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("".join(lines[:drop] + lines[drop + 1 :]))
        assert main(["verify", "causal", str(tampered)]) == 1
