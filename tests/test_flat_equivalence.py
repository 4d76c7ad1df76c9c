"""Flat-vs-reference backend equivalence, pinned on the golden workloads.

The flat backend (:mod:`repro.flat`) re-implements the Figure-1 automaton
over integer-indexed arrays with interned messages and batched delivery.
Its contract is *exact observational equivalence* with the reference
:class:`~repro.core.runtime.NodeRuntime` on everything the paper (and the
rest of the repo) measures: message totals, per-edge per-kind counts,
per-request costs, combine results, final lease graphs, and canonical
``state_snapshot()`` renderings.  These tests pin that contract on the
same six scenarios the golden-trace suite uses and on randomized
mixed-degree trees with scoped combines, and check that profiling runs
the same kernel and the write-batch coalescing extension.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    ABPolicy,
    AggregationSystem,
    AlwaysLeasePolicy,
    NeverLeasePolicy,
    RWWPolicy,
    binary_tree,
    path_tree,
    star_tree,
    two_node_tree,
)
from repro.core.backend import build_backend
from repro.flat.runtime import FlatRuntime
from repro.obs.perf import PerfProfiler
from repro.ops.standard import SUM
from repro.tree.generators import random_tree
from repro.workloads import adv_sequence, uniform_workload, write
from repro.workloads.requests import COMBINE, combine, copy_sequence, scoped_combine

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


def run_scenario(spec, backend: str, **engine_kwargs) -> dict:
    tree = spec["tree"]()
    workload = spec["workload"](tree.n)
    system = AggregationSystem(
        tree, policy_factory=spec["policy"], backend=backend, **engine_kwargs
    )
    per_request = []
    for q in copy_sequence(workload):
        before = system.stats.total
        system.execute(q)
        per_request.append(system.stats.total - before)
    result = system.result()
    return {
        "total_messages": result.total_messages,
        "by_kind": dict(sorted(result.stats.by_kind().items())),
        "edge_counts": {
            str(e): dict(k) for e, k in sorted(result.stats.snapshot().items())
        },
        "per_request_costs": per_request,
        "combine_retvals": [
            round(q.retval, 9) for q in result.requests if q.op == COMBINE
        ],
        "final_lease_graph": sorted(map(list, system.lease_graph_edges())),
        "state_snapshot": system.runtime.state_snapshot(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flat_matches_reference(name):
    """Same scenario, both backends, every observable identical — down to
    the canonical state snapshot the model checker hashes."""
    spec = SCENARIOS[name]
    assert run_scenario(spec, "flat") == run_scenario(spec, "reference")


POLICIES = {
    "rww": RWWPolicy,
    "ab23": lambda: ABPolicy(2, 3),
    "always": AlwaysLeasePolicy,
    "never": NeverLeasePolicy,
}


def mixed_degree_trees(count: int):
    """(seed, tree): the first ``count`` random trees of 6-14 nodes with
    both a degree-2 node and a node of degree >= 3, so both the kernel's
    degree-2 and its general handlers run."""
    seed = 0
    while count:
        tree = random_tree(6 + seed % 9, seed)
        degrees = [len(tree.neighbors(u)) for u in range(tree.n)]
        if 2 in degrees and max(degrees) >= 3:
            yield seed, tree
            count -= 1
        seed += 1


def random_requests(tree, seed: int, length: int = 40) -> list:
    """Writes, combines and scoped combines at random nodes."""
    rng = random.Random(seed)
    out = []
    for _ in range(length):
        u = rng.randrange(tree.n)
        r = rng.random()
        if r < 0.4:
            out.append(write(u, float(rng.randrange(100))))
        elif r < 0.75:
            out.append(combine(u))
        else:
            out.append(scoped_combine(u, rng.choice(tree.neighbors(u))))
    return out


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_flat_matches_reference_on_random_trees(policy):
    """Differential: random mixed-degree trees and random workloads with
    scoped combines, every observable of ``run_scenario`` identical."""
    for seed, tree in mixed_degree_trees(25):
        spec = dict(
            tree=lambda t=tree: t,
            workload=lambda n, t=tree, sd=seed: random_requests(t, sd),
            policy=POLICIES[policy],
        )
        assert run_scenario(spec, "flat") == run_scenario(spec, "reference"), seed


def test_profiling_measures_the_kernel():
    """A profiler attached to the kernel times it without changing what
    runs or what it sends."""
    spec = SCENARIOS["rww_path6_mixed"]
    prof = PerfProfiler()
    prof.attach(FlatRuntime, "_kernel", "flat.kernel")
    try:
        profiled = run_scenario(spec, "flat")
    finally:
        prof.detach()
    assert profiled == run_scenario(spec, "flat")
    assert prof.phase_count["flat.kernel"] > 0


def test_write_batch_coalesces_updates():
    """The flat backend's batch entry point sends at most one update per
    granted edge per dirty node — never more messages than one-at-a-time
    execution — and converges to the same aggregate."""
    tree = path_tree(6)
    # Install leases everywhere first so writes actually push updates.
    warm = [write(i % tree.n, float(i)) for i in range(12)]

    def warmed(backend):
        rt = build_backend(backend, tree, op=SUM, policy_factory=AlwaysLeasePolicy)
        done = []
        rt.submit_combine(combine(0), done.append)
        rt.drain()
        return rt

    one_by_one = warmed("flat")
    warm_cost = one_by_one.stats.total
    for q in copy_sequence(warm):
        one_by_one.submit_write(q)
        one_by_one.drain()
    serial_cost = one_by_one.stats.total - warm_cost

    batched = warmed("flat")
    assert batched.stats.total == warm_cost  # identical warm-up
    batched.run_write_batch(copy_sequence(warm))
    batch_cost = batched.stats.total - warm_cost
    assert 0 < batch_cost < serial_cost  # coalescing genuinely fired
    # Same final aggregate either way.
    assert one_by_one._gval(0) == batched._gval(0)
    one_by_one.check_quiescent_invariants()
    batched.check_quiescent_invariants()
