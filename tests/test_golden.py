"""Golden protocol-trace regression tests.

Canonical scenarios are pinned to checked-in JSON expectations
(``tests/golden/*.json``): total messages, per-kind counts, per-request
costs, combine retvals, and the final lease graph.  Any behavioural change
to the mechanism or a policy — however subtle — shows up as a golden diff.
One concurrent scenario also pins the simulated wire: its event count and
every combine's virtual initiation and completion times.

Regenerate after an *intentional* protocol change with:

    REPRO_REGEN_GOLDEN=1 pytest tests/test_golden.py

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import os
import pathlib
import random

import pytest

from repro import (
    ABPolicy,
    AggregationSystem,
    AlwaysLeasePolicy,
    ConcurrentAggregationSystem,
    NeverLeasePolicy,
    RWWPolicy,
    binary_tree,
    path_tree,
    random_tree,
    star_tree,
    two_node_tree,
)
from repro.core.engine import ScheduledRequest
from repro.sim.channel import uniform_latency
from repro.workloads import adv_sequence, uniform_workload
from repro.workloads.requests import COMBINE, copy_sequence

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SCENARIOS = {
    "rww_pair_adv": dict(
        tree=lambda: two_node_tree(),
        workload=lambda n: adv_sequence(1, 2, rounds=10),
        policy=RWWPolicy,
    ),
    "rww_path6_mixed": dict(
        tree=lambda: path_tree(6),
        workload=lambda n: uniform_workload(n, 60, read_ratio=0.5, seed=42),
        policy=RWWPolicy,
    ),
    "rww_binary15_readheavy": dict(
        tree=lambda: binary_tree(3),
        workload=lambda n: uniform_workload(n, 60, read_ratio=0.8, seed=7),
        policy=RWWPolicy,
    ),
    "ab23_star8_mixed": dict(
        tree=lambda: star_tree(8),
        workload=lambda n: uniform_workload(n, 60, read_ratio=0.5, seed=3),
        policy=lambda: ABPolicy(2, 3),
    ),
    "always_path5": dict(
        tree=lambda: path_tree(5),
        workload=lambda n: uniform_workload(n, 40, read_ratio=0.3, seed=9),
        policy=AlwaysLeasePolicy,
    ),
    "never_binary7": dict(
        tree=lambda: binary_tree(2),
        workload=lambda n: uniform_workload(n, 40, read_ratio=0.7, seed=5),
        policy=NeverLeasePolicy,
    ),
}


def run_scenario(spec) -> dict:
    tree = spec["tree"]()
    workload = spec["workload"](tree.n)
    system = AggregationSystem(tree, policy_factory=spec["policy"])
    per_request = []
    for q in copy_sequence(workload):
        before = system.stats.total
        system.execute(q)
        per_request.append(system.stats.total - before)
    result = system.result()
    return {
        "total_messages": result.total_messages,
        "by_kind": dict(sorted(result.stats.by_kind().items())),
        "per_request_costs": per_request,
        "combine_retvals": [
            round(q.retval, 9) for q in result.requests if q.op == COMBINE
        ],
        "final_lease_graph": sorted(map(list, system.lease_graph_edges())),
    }


def run_concurrent_scenario() -> dict:
    """200 requests overlapping on the latency-ful wire (Poisson arrivals)."""
    tree = random_tree(15, 2)
    system = ConcurrentAggregationSystem(
        tree, latency=uniform_latency(0.1, 3.0), seed=2
    )
    rng = random.Random(2)
    t, schedule = 0.0, []
    for q in uniform_workload(tree.n, 200, read_ratio=0.5, seed=2):
        t += rng.expovariate(1.0)
        schedule.append(ScheduledRequest(time=t, request=q))
    result = system.run(schedule)
    return {
        "total_messages": result.total_messages,
        "by_kind": dict(sorted(result.stats.by_kind().items())),
        "events_processed": system.sim.events_processed,
        "combines": [
            [round(q.initiated_at, 9), round(q.completed_at, 9), round(q.retval, 9)]
            for q in result.requests
            if q.op == COMBINE
        ],
    }


def check_golden(name: str, observed: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file {path} missing; run REPRO_REGEN_GOLDEN=1 pytest {__file__}"
    )
    expected = json.loads(path.read_text())
    assert observed == expected, f"golden mismatch for {name}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden(name):
    check_golden(name, run_scenario(SCENARIOS[name]))


def test_golden_concurrent_wire():
    check_golden("concurrent_random15_uniform", run_concurrent_scenario())
