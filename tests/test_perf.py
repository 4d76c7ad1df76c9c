"""Tests for the performance-observability subsystem.

Covers the wall-clock profiler (:mod:`repro.obs.perf`) — attach/detach,
nesting/self-time accounting, the collapsed-stack round trip, the ``perf``
CLI — and the streaming cost meter (:mod:`repro.obs.costmeter`), which must
agree exactly with the offline per-edge DP harness.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.cli import PERF_ATTACH_POINTS, build_parser, main, run_perf_workload
from repro.core.engine import AggregationSystem
from repro.core.runtime import Router
from repro.obs.perf import PerfProfiler, parse_collapsed
from repro.analysis.competitive import competitive_ratio
from repro.offline import offline_lease_lower_bound
from repro.tree.generators import binary_tree, path_tree, star_tree, two_node_tree
from repro.workloads import adv_sequence, uniform_workload
from repro.workloads.requests import copy_sequence


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


def attach_perf_points(prof: PerfProfiler) -> None:
    for owner, attr, phase in PERF_ATTACH_POINTS:
        prof.attach(owner, attr, phase)


# ------------------------------------------------------------ attach/detach
class _SinkNode:
    """Minimal routing target: absorbs messages, allocates nothing."""

    def __init__(self, node_id: int) -> None:
        self.id = node_id

    def on_message(self, src, message) -> None:
        pass


def test_disabled_dispatch_allocates_nothing():
    """Detach leaves the shipped dispatch behind: the router's per-message
    work allocates nothing once the profiler is gone."""
    original = Router.route
    prof = PerfProfiler()
    prof.attach(Router, "route", "dispatch")
    assert Router.route is not original
    prof.detach()
    assert Router.route is original
    router = Router()
    router.add(_SinkNode(0))
    message = object()
    router.route(1, 0, message)  # warm up (method caches, etc.)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for _ in range(1000):
        router.route(1, 0, message)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # No per-message allocation: the delta must not scale with the 1000
    # routed messages (a tiny constant from the measurement scaffolding
    # itself — loop iterator, tracemalloc bookkeeping — is tolerated).
    assert after - before < 256


def test_disabled_mode_adds_no_node_attributes():
    """Profiling is attached to classes from outside, never to instances:
    no node, engine or runtime carries a profiler attribute, attached or
    not."""
    plain = AggregationSystem(binary_tree(2))
    prof = PerfProfiler()
    attach_perf_points(prof)
    try:
        profiled = AggregationSystem(binary_tree(2))
        profiled.run(uniform_workload(7, 10, read_ratio=0.5, seed=1))
    finally:
        prof.detach()
    assert prof.phase_count  # the attached run was profiled
    for system in (plain, profiled):
        assert not hasattr(system, "profiler")
        assert not hasattr(system.runtime, "profiler")
        for node in system.nodes.values():
            assert not hasattr(node, "profiler")
            assert not hasattr(node, "prof")
    # The plain engine holds no cost meter either.
    assert plain.cost_meter is None


def test_attach_refuses_what_the_class_does_not_define():
    """Only a plain function of the class itself can be attached: an
    inherited method would be patched on the wrong class, a class method
    would lose its binding."""

    class Base:
        def inherited(self) -> int:
            return 1

        @classmethod
        def made(cls) -> "Base":
            return cls()

    class Child(Base):
        pass

    prof = PerfProfiler()
    for owner, attr in ((Child, "inherited"), (Base, "made"), (Base, "missing")):
        with pytest.raises(AttributeError):
            prof.attach(owner, attr, "x")
    assert "inherited" not in vars(Child)
    assert isinstance(vars(Base)["made"], classmethod)


def test_attach_times_calls_until_detach():
    """The wrapper returns the original's result, names the phase from the
    call's arguments when asked to, pops the phase when the call raises,
    and detach restores every original, newest first."""

    class Box:
        def get(self, key: str) -> str:
            if key == "bad":
                raise KeyError(key)
            return key.upper()

    original = Box.get
    prof = PerfProfiler(clock=FakeClock())
    prof.attach(Box, "get", lambda self, key: "get." + key)
    prof.attach(Box, "get", "outer")  # attaching twice nests
    box = Box()
    assert box.get("a") == "A"
    with pytest.raises(KeyError):
        box.get("bad")
    assert prof.depth == 0
    assert prof.phase_count == {"outer": 2, "get.a": 1, "get.bad": 1}
    assert set(prof.stacks) == {"outer", "outer;get.a", "outer;get.bad"}
    prof.detach()
    assert Box.get is original
    assert box.get("b") == "B"
    assert prof.phase_count["outer"] == 2  # nothing recorded after detach


# ---------------------------------------------------------------- accounting
def test_phase_totals_internally_consistent():
    """Inclusive >= self per phase; nested child time is attributed to the
    parent's inclusive total but excluded from its self time."""
    clock = FakeClock(step=1.0)
    prof = PerfProfiler(clock=clock)
    with prof.phase("outer"):
        with prof.phase("inner"):
            pass
    # Tick sequence: outer-start=0, inner-start=1, inner-end=2, outer-end=3.
    assert prof.phase_total["inner"] == 1.0
    assert prof.phase_self["inner"] == 1.0
    assert prof.phase_total["outer"] == 3.0
    assert prof.phase_self["outer"] == 2.0  # 3 inclusive - 1 inner
    for name in prof.phase_count:
        assert prof.phase_total[name] >= prof.phase_self[name]
    # Self times partition the root's inclusive time exactly.
    assert sum(prof.phase_self.values()) == prof.phase_total["outer"]
    # And the collapsed table carries the same self seconds per stack path.
    assert prof.stacks == {"outer": 2.0, "outer;inner": 1.0}
    assert sum(prof.stacks.values()) == prof.phase_total["outer"]


def test_phase_counts_and_counters():
    prof = PerfProfiler(clock=FakeClock())
    for _ in range(3):
        with prof.phase("p"):
            pass
    prof.count("events")
    prof.count("events", 4)
    assert prof.phase_count["p"] == 3
    assert prof.counters["events"] == 5
    assert prof.depth == 0


def test_snapshot_is_json_safe_and_sorted():
    prof = PerfProfiler(clock=FakeClock())
    with prof.phase("b"):
        pass
    with prof.phase("a"):
        pass
    prof.count("n", 2)
    snap = prof.snapshot()
    json.dumps(snap)  # must not raise
    assert list(snap["phases"]) == ["a", "b"]
    assert snap["counters"] == {"n": 2}


# ------------------------------------------------------- collapsed round trip
def test_collapsed_stack_round_trip(tmp_path):
    clock = FakeClock(step=1.0)
    prof = PerfProfiler(clock=clock)
    with prof.phase("sim.deliver"):
        with prof.phase("mechanism.probe"):
            pass
        with prof.phase("mechanism.response"):
            pass
    path = tmp_path / "prof.collapsed"
    n = prof.write_collapsed(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == n == 3
    parsed = parse_collapsed(lines)
    assert parsed == prof.stacks  # whole-second weights survive exactly
    assert set(parsed) == {
        "sim.deliver",
        "sim.deliver;mechanism.probe",
        "sim.deliver;mechanism.response",
    }


def test_collapsed_drops_zero_weight_stacks():
    prof = PerfProfiler(clock=FakeClock(step=0.0))  # frozen clock
    with prof.phase("instant"):
        pass
    assert prof.collapsed_lines() == []


def test_parse_collapsed_rejects_malformed():
    with pytest.raises(ValueError):
        parse_collapsed(["12345"])  # weight but no stack


def test_profiled_run_records_mechanism_phases():
    prof = PerfProfiler()
    attach_perf_points(prof)
    try:
        system = AggregationSystem(binary_tree(2))
        wl = uniform_workload(7, 30, read_ratio=0.5, seed=1)
        result = system.run(copy_sequence(wl))
    finally:
        prof.detach()
    assert sum(
        prof.phase_count[p] for p in prof.phase_count if p.startswith("mechanism.")
    ) == result.total_messages
    # Round trip through the on-disk format preserves every stack key.
    parsed = parse_collapsed(prof.collapsed_lines())
    assert set(parsed) <= set(prof.stacks)


# ------------------------------------------------------------------ perf CLI
def test_perf_cli_record_report_flame_compare(tmp_path, monkeypatch):
    """``perf record`` in both modes, then ``report``, ``flame --out`` and
    ``compare`` of a profile against itself.  Every routed message lands in
    one ``mechanism.*`` phase, the chaos counters are those of the same run
    unprofiled, and every attached attribute is the original afterwards."""
    monkeypatch.chdir(tmp_path)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in PERF_ATTACH_POINTS]
    record = ["perf", "record", "--length", "200", "--seed", "7", "--mode"]
    mechanism = {}
    for mode in ("seq", "chaos"):
        assert main(record + [mode, "--out", f"{mode}.json"]) == 0
        for owner, attr, original in originals:
            assert vars(owner)[attr] is original, (mode, attr)
        data = json.loads((tmp_path / f"{mode}.json").read_text())
        mechanism[mode] = {
            name: p["count"] for name, p in data["phases"].items()
            if name.startswith("mechanism.")
        }
        assert data["counters"]["messages_routed"] == data["run"]["messages"]
        assert data["run"]["messages"] == sum(mechanism[mode].values())
    # Requests 600 time units apart each finish before the next starts, and
    # the reliable layer hides every fault: the chaos run sends exactly
    # what the sequential one does.
    assert mechanism["chaos"] == mechanism["seq"]

    system, result = run_perf_workload(build_parser().parse_args(record + ["chaos", "--out", "-"]))
    assert result.total_messages == data["run"]["messages"]
    assert data["counters"]["sim.events"] == system.sim.events_processed
    assert data["counters"]["reliability.retransmits"] == system.network.summary.retransmits
    assert data["counters"]["reliability.retransmits"] > 0
    assert data["phases"]["reliability.timeout"]["count"] > 0
    assert data["phases"]["faults.deliver"]["count"] > 0

    assert main(["perf", "report", "chaos.json"]) == 0
    assert main(["perf", "flame", "chaos.json", "--out", "flame.txt"]) == 0
    assert (tmp_path / "flame.txt").read_text() == (tmp_path / "chaos.json.collapsed").read_text()
    assert main(["perf", "compare", "chaos.json", "chaos.json"]) == 0


# ----------------------------------------------------------------- cost meter
GOLDEN = {
    "pair_adv": (two_node_tree, lambda n: adv_sequence(1, 2, rounds=10)),
    "path6_mixed": (
        lambda: path_tree(6),
        lambda n: uniform_workload(n, 60, read_ratio=0.5, seed=42),
    ),
    "binary15_readheavy": (
        lambda: binary_tree(3),
        lambda n: uniform_workload(n, 60, read_ratio=0.8, seed=7),
    ),
    "star8_mixed": (
        lambda: star_tree(8),
        lambda n: uniform_workload(n, 60, read_ratio=0.5, seed=3),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cost_meter_matches_offline_harness(name):
    """The streaming meter's lower bound and ratio equal the offline
    per-edge DP harness on the golden workloads (within 1e-9)."""
    make_tree, make_wl = GOLDEN[name]
    tree = make_tree()
    wl = make_wl(tree.n)
    system = AggregationSystem(tree, cost_accounting=True)
    result = system.run(copy_sequence(wl))
    report = result.cost
    assert report is not None
    assert report.observed == result.total_messages
    assert report.opt_lower_bound == offline_lease_lower_bound(tree, wl)
    offline = competitive_ratio(tree, wl, label=name)
    assert report.ratio == pytest.approx(offline.ratio_vs_opt, abs=1e-9)
    assert not report.partial


def test_cost_meter_regret_is_consistent():
    tree = binary_tree(3)
    wl = uniform_workload(tree.n, 60, read_ratio=0.5, seed=7)
    system = AggregationSystem(tree, cost_accounting=True)
    result = system.run(copy_sequence(wl))
    report = result.cost
    # One entry per ordered edge; per-edge optima sum to the global bound.
    assert len(report.regret) == 2 * (tree.n - 1)
    assert sum(opt for _, _, opt in report.regret) == report.opt_lower_bound
    assert sum(obs for _, obs, _ in report.regret) == report.observed
    # Sorted by descending regret.
    regrets = [obs - opt for _, obs, opt in report.regret]
    assert regrets == sorted(regrets, reverse=True)
    # JSON form mirrors the dataclass.
    d = report.to_dict()
    assert d["observed_messages"] == report.observed
    assert d["opt_lower_bound"] == report.opt_lower_bound
    json.dumps(d)


def test_cost_meter_dropped_on_topology_change():
    """The per-edge DP assumes a static tree; dynamic engines shed the
    meter at the first topology change instead of reporting stale bounds."""
    from repro.core.dynamic import DynamicAggregationSystem

    system = DynamicAggregationSystem(path_tree(3), cost_accounting=True)
    assert system.cost_meter is not None
    system.add_leaf(parent=2)
    assert system.cost_meter is None
    assert system.result().cost is None
