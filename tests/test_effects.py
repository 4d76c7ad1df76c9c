"""Tests for the static effect analysis (repro.verify.effects).

Four layers, mirroring the protolint test strategy in test_verify.py:

* extraction units — the reaction graph pulled out of the real sources has
  the shape the paper's automaton prescribes (T3-T6), and the flat kernel
  agrees with the reference ``core`` handlers projected onto flat's scope;
* the PL50x rules against seeded mutants — copies of the *real* sources
  with one protocol effect surgically removed or a deliberately stale
  spec, each proving its rule fires;
* the derived POR independence — equivalent state spaces to the hand-coded
  relation on pinned scopes, still mutant-catching, and sound degradation
  to full dependence when a handler has non-node-local effects;
* the *dynamic twins* of PL50x — live engine runs per golden scenario
  asserting the observed (received kind -> sends/emits) sets are contained
  in the static spec, the same static/dynamic pairing PL101/PL201 have in
  test_verify.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import AggregationSystem
from repro.core.mechanism import LeaseNode
from repro.core.messages import Release, Update
from repro.core.policies import AlwaysLeasePolicy
from repro.tree.generators import path_tree, star_tree
from repro.verify.effects import (
    FLAT_KINDS,
    MESSAGE_KINDS,
    NODE_STATE_FIELDS,
    EffectSet,
    ReactionGraph,
    check_reaction,
    derive_independence,
    derived_independence,
    extract_core_effects,
    extract_reaction_graph,
    flat_scope,
    reaction_graph_json,
)
from repro.verify.explore import Explorer, default_script, parse_script
from repro.verify.reaction_spec import REACTION_SPEC
from repro.workloads.requests import combine, write

REPO = Path(__file__).resolve().parent.parent
SRC_PKG = REPO / "src" / "repro"

#: Trace kinds owned by the transport, not by protocol handlers.
_TRANSPORT_KINDS = {"send", "recv", "deliver", "delivery_failed"}


# ----------------------------------------------------------------- extraction
class TestExtraction:
    def test_handlers_extracted_for_every_wire_kind(self):
        graph = extract_reaction_graph()
        assert set(graph.core) == set(MESSAGE_KINDS.values())
        # Revoke belongs to crash recovery, which only the reference
        # backend runs; the flat kernel dispatches the other four kinds.
        assert set(graph.flat) == FLAT_KINDS
        assert FLAT_KINDS == set(MESSAGE_KINDS.values()) - {"revoke"}

    def test_core_and_flat_reaction_graphs_agree(self):
        # The kernel equals core projected onto flat's scope: same sends
        # and state accesses, no trace emits, no ghost log.
        graph = extract_reaction_graph()
        for kind in sorted(FLAT_KINDS):
            assert graph.flat[kind] == flat_scope(graph.core[kind]), kind
            assert not graph.flat[kind].emits

    def test_probe_reaction_matches_t3_t4(self):
        # T3/T4 (Fig. 1): a Probe either grants (Response back to the
        # prober) or forwards probes outward; never any other kind.
        eff = extract_reaction_graph().core["probe"]
        assert eff.send_map == {
            "probe": frozenset({"other"}),
            "response": frozenset({"src"}),
        }
        assert "probe_round" in eff.emits
        assert "pndg" in eff.writes and "snt" in eff.writes
        assert not eff.unknown

    def test_update_reaction_matches_t5(self):
        # T5: forwardupdates toward remaining grantees, or forwardrelease
        # when the update wave is over — and never back to the sender.
        eff = extract_reaction_graph().core["update"]
        assert eff.send_map == {
            "update": frozenset({"other"}),
            "release": frozenset({"other"}),
        }
        assert "aval" in eff.writes and "uaw" in eff.writes

    def test_write_through_tuple_unpacked_alias_is_extracted(self, tmp_path):
        # A seeded handler that writes node state only through names
        # unpacked from it (``a, b = self.X[k]``, also nested inside a
        # pairwise tuple assignment): each name aliases X.
        path = tmp_path / "mechanism.py"
        path.write_text(
            "class LeaseNode:\n"
            "    def _t5_update(self, w, msg):\n"
            "        nids, rcvids = self.sntupdates[w]\n"
            "        nids.append(msg.id)\n"
            "\n"
            "    def _t6_release(self, w, msg):\n"
            "        (waiting, spare), n = self.snt.get(w), 0\n"
            "        spare.discard(w)\n"
            "\n"
            "LeaseNode._DISPATCH.update(\n"
            "    {Update: LeaseNode._t5_update, Release: LeaseNode._t6_release}\n"
            ")\n",
            encoding="utf-8",
        )
        effects = extract_core_effects(path)
        assert effects["update"].writes == frozenset({"sntupdates"})
        assert effects["release"].writes == frozenset({"snt"})

    def test_every_effect_is_node_local(self):
        graph = extract_reaction_graph()
        for impl in (graph.core, graph.flat):
            for kind, eff in impl.items():
                assert not eff.unknown, (kind, sorted(eff.unknown))
                assert eff.reads <= NODE_STATE_FIELDS
                assert eff.writes <= NODE_STATE_FIELDS

    def test_repo_reaction_graph_is_clean(self):
        assert check_reaction() == []

    def test_reaction_graph_json_is_loadable_and_clean(self):
        data = json.loads(reaction_graph_json())
        assert data["ok"] is True
        assert data["findings"] == []
        assert data["independence"]["node_local"] is True
        assert set(data["graph"]["core"]) == set(MESSAGE_KINDS.values())
        # Spec and extraction are the same object shape, diffable by eye.
        assert data["spec"]["probe"] == data["graph"]["core"]["probe"]


# ------------------------------------------------------------ seeded mutants
def _mutated_pkg(tmp_path, mechanism=(), runtime=(), codec=()):
    """A fixture package holding copies of the *real* sources with the
    given ``(old, new)`` string replacements applied.  Asserts every
    ``old`` is present so source drift fails loudly, not silently."""
    root = tmp_path / "pkg"
    for sub, name, repls in (
        ("core", "mechanism.py", mechanism),
        ("flat", "runtime.py", runtime),
        ("net", "codec.py", codec),
    ):
        text = (SRC_PKG / sub / name).read_text(encoding="utf-8")
        for old, new in repls:
            assert old in text, f"mutation anchor missing from {name}: {old!r}"
            text = text.replace(old, new)
        (root / sub).mkdir(parents=True, exist_ok=True)
        (root / sub / name).write_text(text, encoding="utf-8")
    return root


def _spec_with(kind, **overrides):
    """REACTION_SPEC with one kind's EffectSet fields replaced."""
    spec = dict(REACTION_SPEC)
    base = spec[kind]
    fields = {
        "sends": dict(base.send_map),
        "emits": set(base.emits),
        "reads": set(base.reads),
        "writes": set(base.writes),
    }
    fields.update(overrides)
    spec[kind] = EffectSet.make(**fields)
    return spec


class TestReactionRules:
    def test_unmutated_copies_are_clean(self, tmp_path):
        root = _mutated_pkg(tmp_path)
        assert check_reaction(package_root=root, project_root=tmp_path) == []

    def test_dropped_send_in_core_is_pl501_and_pl504(self, tmp_path):
        # The mutant drops T4's Response send (keeps the operand reads so
        # only the send itself disappears from the effect set).
        root = _mutated_pkg(
            tmp_path,
            mechanism=[(
                "self.send(w, Response(x=self.subval(w), flag=self.granted[w],"
                " wlog=self._wlog_snapshot()))",
                "_ = (self.subval(w), self.granted[w], self._wlog_snapshot())",
            )],
        )
        findings = check_reaction(package_root=root, project_root=tmp_path)
        codes = {f.code for f in findings}
        assert "PL501" in codes  # core lost a spec-declared send
        assert "PL504" in codes  # ... and now disagrees with flat
        assert any(
            f.code == "PL501" and "response" in f.message and "core" in f.message
            for f in findings
        )

    def test_dropped_send_in_flat_is_pl501_and_pl504(self, tmp_path):
        # A seeded bug in the kernel's T5 branch: the relay forwards no
        # update (both the degree-2 and the general push are gone; the
        # operands are still computed, so only the sends disappear).
        root = _mutated_pkg(
            tmp_path,
            runtime=[
                (
                    "push((2, rev[o], combine(val[u], aval[s]), nid))",
                    "_ = (rev[o], combine(val[u], aval[s]), nid)",
                ),
                ("push((2, rev[t], x, nid))", "_ = (rev[t], x, nid)"),
            ],
        )
        findings = check_reaction(package_root=root, project_root=tmp_path)
        assert any(
            f.code == "PL501"
            and "flat handler for 'update' drops the declared send of 'update'"
            in f.message
            for f in findings
        )
        assert any(
            f.code == "PL504" and "'update'" in f.message for f in findings
        )

    def test_flat_kind_outside_scope_is_pl504(self, tmp_path):
        # A kernel that grows a wire code for revoke no longer matches the
        # declared flat scope.
        root = _mutated_pkg(
            tmp_path, runtime=[("K_RELEASE = 3\n", "K_RELEASE = 3\nK_REVOKE = 4\n")]
        )
        findings = check_reaction(package_root=root, project_root=tmp_path)
        assert any(
            f.code == "PL504" and "the flat kernel receives" in f.message
            and "'revoke'" in f.message
            for f in findings
        )

    def test_unreadable_kernel_dispatch_is_flagged(self, tmp_path):
        # Without its kind dispatch the kernel's branches all count for
        # every kind: the reader over-approximates and the rules fire,
        # instead of the check passing silently.
        root = _mutated_pkg(
            tmp_path, runtime=[("if type(m) is int:", "if m is not None:")]
        )
        findings = check_reaction(package_root=root, project_root=tmp_path)
        assert any(
            f.code == "PL502" and "flat handler for 'probe'" in f.message
            for f in findings
        )
        assert any(f.code == "PL504" for f in findings)

    def test_undeclared_effect_is_pl502(self):
        # A spec that forgot probe's pndg write: the implementation's write
        # is then protocol drift by definition.
        spec = _spec_with(
            "probe", writes=set(REACTION_SPEC["probe"].writes) - {"pndg"}
        )
        findings = check_reaction(spec=spec)
        assert any(
            f.code == "PL502" and "pndg" in f.message for f in findings
        )

    def test_lost_declared_emit_is_pl501(self):
        # Spec declares an emit the handlers never perform.
        spec = _spec_with(
            "release", emits=set(REACTION_SPEC["release"].emits) | {"lease_expired"}
        )
        findings = check_reaction(spec=spec)
        assert any(
            f.code == "PL501" and "lease_expired" in f.message for f in findings
        )

    def test_stale_spec_field_is_pl503(self):
        spec = _spec_with(
            "probe", reads=set(REACTION_SPEC["probe"].reads) | {"grant_table"}
        )
        findings = check_reaction(spec=spec)
        assert any(
            f.code == "PL503" and "grant_table" in f.message for f in findings
        )

    def test_unknown_spec_kind_is_pl503(self):
        spec = dict(REACTION_SPEC)
        spec["heartbeat"] = EffectSet.make({}, (), (), ())
        findings = check_reaction(spec=spec)
        assert any(
            f.code == "PL503" and "heartbeat" in f.message for f in findings
        )

    def test_missing_spec_entry_is_pl503(self):
        spec = dict(REACTION_SPEC)
        del spec["revoke"]
        findings = check_reaction(spec=spec)
        assert any(
            f.code == "PL503" and "revoke" in f.message for f in findings
        )

    def test_sent_kind_without_codec_is_pl505(self, tmp_path):
        root = _mutated_pkg(
            tmp_path,
            codec=[
                ("    Revoke: _encode_revoke,\n", ""),
                ("    Revoke().kind: _decode_revoke,\n", ""),
            ],
        )
        findings = check_reaction(package_root=root, project_root=tmp_path)
        assert any(
            f.code == "PL505" and "revoke" in f.message for f in findings
        )

    def test_findings_are_json_serializable(self, tmp_path):
        spec = dict(REACTION_SPEC)
        del spec["revoke"]
        findings = check_reaction(spec=spec)
        assert findings
        payload = json.dumps([f.to_dict() for f in findings])
        assert "PL503" in payload


# --------------------------------------------------- derived POR independence
class _StaleUpdateNode(LeaseNode):
    """Seeded bug (same as test_verify): T5 forgets ``aval[w]``."""

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
    """Seeded bug: recovery trusts the pre-crash lease tables verbatim."""

    def recover_reconcile(self):
        pass


class TestDerivedIndependence:
    def test_repo_relation_is_node_local(self):
        indep = derived_independence()
        assert indep.node_local
        assert not indep.unknown_effects
        a = ("deliver", (0, 1), 1, 0)
        b = ("deliver", (2, 1), 1, 0)
        c = ("deliver", (1, 2), 2, 0)
        assert not indep.independent(a, b)  # same destination node
        assert indep.independent(a, c)      # distinct destinations commute
        assert not indep.independent(a, ("op", 0, "w0=1"))

    def test_unknown_effect_degrades_to_full_dependence(self):
        dirty = EffectSet.make({}, (), (), (), unknown=["writes global table"])
        graph = ReactionGraph(
            core={"probe": dirty}, flat={}, core_path="x", flat_path="y"
        )
        indep = derive_independence(graph)
        assert not indep.node_local
        assert indep.unknown_effects
        a = ("deliver", (0, 1), 1, 0)
        c = ("deliver", (1, 2), 2, 0)
        assert not indep.independent(a, c)

    @pytest.mark.parametrize(
        "tree_factory,script",
        [
            (lambda: path_tree(3), None),  # None -> default_script(3, 4)
            (lambda: star_tree(3), "c0,w1=1,c2,w2=3,c0"),
            (lambda: path_tree(3), "c0,w1=7,k0,r0,w1=9,c0"),
        ],
    )
    def test_derived_reproduces_hand_state_space(self, tree_factory, script):
        ops = parse_script(script) if script else default_script(3, 4)
        runs = {}
        for mode in ("hand", "derived"):
            r = Explorer(tree_factory(), ops, independence=mode).run()
            assert r.ok, [v.to_dict() for v in r.violations]
            runs[mode] = r
        # The derived relation equals the hand-coded one on delivery pairs,
        # so the sleep-set-reduced state spaces are identical — not merely
        # "same or smaller".
        assert runs["derived"].states == runs["hand"].states
        assert runs["derived"].transitions == runs["hand"].transitions
        assert runs["derived"].slept == runs["hand"].slept

    def test_derived_still_catches_stale_update_mutant(self):
        script = parse_script("c1,w0=1,c1,c2")
        broken = Explorer(
            path_tree(3),
            script,
            policy_factory=AlwaysLeasePolicy,
            node_cls=_StaleUpdateNode,
            independence="derived",
        ).run()
        assert not broken.ok
        assert {v.kind for v in broken.violations} & {"strict", "causal"}

    def test_derived_still_catches_ignored_release_mutant(self):
        script = parse_script("c0,w1=1,c0,w1=2,w1=3")
        broken = Explorer(
            path_tree(2),
            script,
            node_cls=_IgnoreReleaseNode,
            independence="derived",
        ).run()
        assert not broken.ok
        assert any(v.kind == "lemma" and "3.1" in v.message for v in broken.violations)

    def test_derived_still_catches_stale_lease_recovery_mutant(self):
        script = parse_script("c0,w1=7,k0,r0,w1=9,c0")
        broken = Explorer(
            path_tree(3),
            script,
            node_cls=_StaleLeaseRecoveryNode,
            independence="derived",
        ).run()
        assert not broken.ok
        assert any(v.kind == "lemma" and "3.1" in v.message for v in broken.violations)

    def test_unknown_independence_mode_rejected(self):
        with pytest.raises(ValueError):
            Explorer(path_tree(2), default_script(2, 2), independence="psychic")


# ------------------------------------------------------------- dynamic twins
#: Emitted by the engine's request tracker (core/backend.py), not by the
#: LeaseNode handlers the static analysis covers.
_ENGINE_KINDS = {"span"}


def _accumulate_reactions(events, observed):
    """(received kind -> observed sends / emits) from one request's slice
    of a sequential trace.

    The synchronous engine runs each handler to completion between
    deliveries, so every protocol event after a ``recv`` at node *n* and
    before the next ``recv`` anywhere is an effect of that handler.
    Events before the first ``recv`` are request initiation, not a
    reaction — the caller slices the trace per request so initiation
    sends are never misattributed to the previous request's last handler.
    """
    ctx = None
    for ev in events:
        if ev.kind == "recv":
            ctx = (ev.detail["msg"], ev.node)
            observed.setdefault(ctx[0], {"sends": set(), "emits": set()})
        elif ctx is not None and ev.node == ctx[1]:
            if ev.kind == "send":
                observed[ctx[0]]["sends"].add(ev.detail["msg"])
            elif ev.kind not in _TRANSPORT_KINDS | _ENGINE_KINDS:
                observed[ctx[0]]["emits"].add(ev.kind)


def _run_and_observe(system, ops):
    observed = {}
    start = 0
    for op in ops:
        system.execute(op)
        events = list(system.trace)
        _accumulate_reactions(events[start:], observed)
        start = len(events)
    return observed


_GOLDEN_SCENARIOS = [
    # (name, policy_factory, ops)
    ("rww-mixed", None,
     [write(1, 2.0), combine(0), write(2, 5.0), combine(2), combine(1)]),
    ("always-lease", AlwaysLeasePolicy,
     [combine(0), write(1, 1.0), combine(2), write(2, 3.0), combine(0)]),
]


class TestDynamicTwins:
    """Live counterpart of PL501/PL502: every effect actually performed by
    a handler during a golden run must be declared by the reaction spec
    (observed ⊆ static — static may legitimately over-approximate)."""

    @pytest.mark.parametrize(
        "name,policy,ops",
        _GOLDEN_SCENARIOS,
        ids=[s[0] for s in _GOLDEN_SCENARIOS],
    )
    def test_observed_effects_within_spec(self, name, policy, ops):
        kwargs = {"trace_enabled": True}
        if policy is not None:
            kwargs["policy_factory"] = policy
        system = AggregationSystem(path_tree(3), **kwargs)
        observed = _run_and_observe(system, ops)
        assert observed, "scenario delivered no messages"
        for kind, eff in observed.items():
            spec = REACTION_SPEC[kind]
            declared_sends = set(spec.send_map)
            assert eff["sends"] <= declared_sends, (
                name, kind, eff["sends"] - declared_sends
            )
            assert eff["emits"] <= spec.emits, (
                name, kind, eff["emits"] - spec.emits
            )

    def test_scenarios_exercise_the_probe_and_response_rows(self):
        system = AggregationSystem(path_tree(3), trace_enabled=True)
        observed = _run_and_observe(system, _GOLDEN_SCENARIOS[0][2])
        assert {"probe", "response"} <= set(observed)
        assert "response" in observed["probe"]["sends"]


# ----------------------------------------------------------------------- CLI
class TestEffectsCLI:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_verify_effects_json(self):
        proc = self._run("verify", "effects", "--json")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is True
        assert data["independence"]["node_local"] is True
        # The flat entries come from the kernel: core's minus emits and
        # ghost, for the four kinds flat receives.
        graph = data["graph"]
        assert set(graph["flat"]) == FLAT_KINDS
        for kind, flat in graph["flat"].items():
            core = graph["core"][kind]
            assert flat["emits"] == [] and flat["sends"] == core["sends"]
            for key in ("reads", "writes"):
                assert flat[key] == [f for f in core[key] if f != "ghost"]

    def test_verify_effects_human(self):
        proc = self._run("verify", "effects")
        assert proc.returncode == 0, proc.stderr
        assert "on probe:" in proc.stdout
        assert "deliveries at distinct nodes commute" in proc.stdout

    def test_verify_explore_independence_flag(self):
        out = {}
        for mode in ("hand", "derived"):
            proc = self._run(
                "verify", "explore", "--nodes", "3", "--max-ops", "3",
                "--independence", mode, "--json",
            )
            assert proc.returncode == 0, proc.stderr
            out[mode] = json.loads(proc.stdout)
            assert out[mode]["independence"] == mode
            assert out[mode]["ok"] is True
        assert out["hand"]["states"] == out["derived"]["states"]
