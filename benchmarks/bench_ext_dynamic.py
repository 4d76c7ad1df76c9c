"""EXT-DYN — reconfiguration cost in dynamic trees (extension).

Measures what topology churn costs under the revocation protocol: the
per-join revocation bill as a function of how much lease state exists
(cold tree vs fully-leased tree), and steady-state throughput under mixed
request/churn workloads, with strict consistency checked throughout.
"""

from __future__ import annotations

import random

import pytest

from repro import path_tree
from repro.core.dynamic import DynamicAggregationSystem
from repro.util import format_table
from repro.workloads import combine, write


def join_cost(depth_tree, warm: bool):
    """Revocation messages caused by one join at the end of a path."""
    system = DynamicAggregationSystem(depth_tree)
    if warm:
        system.execute(combine(0))  # lease the whole path toward node 0
    tail = depth_tree.n - 1
    before = system.stats.by_kind().get("revoke", 0)
    system.add_leaf(parent=tail)
    return system.stats.by_kind().get("revoke", 0) - before


def churn_run(seed: int, steps: int = 200):
    rng = random.Random(seed)
    system = DynamicAggregationSystem(path_tree(4))
    reference = {}
    joins = leaves = 0
    for _ in range(steps):
        x = rng.random()
        if x < 0.1 and system.tree.n < 12:
            system.add_leaf(rng.randrange(system.tree.n))
            joins += 1
        elif x < 0.2 and system.tree.n > 2:
            leaf_nodes = [u for u in system.tree.nodes() if system.tree.is_leaf(u)]
            victim = rng.choice(leaf_nodes)
            remap = system.remove_leaf(victim)
            reference.pop(victim, None)
            for old, new in remap.items():
                if old in reference:
                    reference[new] = reference.pop(old)
            leaves += 1
        elif x < 0.6:
            node = rng.randrange(system.tree.n)
            val = float(rng.randrange(100))
            system.execute(write(node, val))
            reference[node] = val
        else:
            node = rng.randrange(system.tree.n)
            got = system.execute(combine(node)).retval
            assert abs(got - sum(reference.values())) < 1e-6
    system.check_quiescent_invariants()
    return joins, leaves, system.stats.total, system.stats.by_kind().get("revoke", 0)


def run_tables():
    depth_rows = []
    for depth in (2, 4, 8, 16):
        tree = path_tree(depth + 1)
        depth_rows.append(
            (depth, join_cost(tree, warm=False), join_cost(tree, warm=True))
        )
    churn_rows = []
    for seed in (0, 1, 2):
        joins, removals, msgs, revokes = churn_run(seed)
        churn_rows.append((seed, joins, removals, msgs, revokes))
    return depth_rows, churn_rows


@pytest.mark.benchmark(group="ext-dyn")
def test_dynamic_reconfiguration(benchmark, emit, emit_json):
    benchmark.pedantic(lambda: churn_run(0, steps=60), rounds=3, iterations=1)
    depth_rows, churn_rows = run_tables()
    # Cold joins cost nothing; warm joins revoke exactly the lease chain
    # from the join point down to the reader (= path depth here).
    for depth, cold, warm in depth_rows:
        assert cold == 0
        assert warm == depth
    assert all(r[-1] > 0 for r in churn_rows)  # churn does exercise revocation
    text = "\n\n".join(
        [
            format_table(
                ["path depth", "revokes (cold join)", "revokes (leased join)"],
                depth_rows,
                title=(
                    "EXT-DYN — join cost vs existing lease state (joining at "
                    "the far end of a fully-leased path revokes the chain):"
                ),
            ),
            format_table(
                ["seed", "joins", "removals", "total messages", "revokes"],
                churn_rows,
                title="EXT-DYN — mixed churn runs (strict consistency asserted per combine):",
            ),
        ]
    )
    emit("ext_dynamic", text)
    emit_json("ext_dynamic", {
        "benchmark": "ext_dynamic",
        "join_cost": [
            {"path_depth": depth, "revokes_cold": cold, "revokes_leased": warm}
            for depth, cold, warm in depth_rows
        ],
        "churn_runs": [
            {"seed": seed, "joins": joins, "removals": removals,
             "messages": msgs, "revokes": revokes}
            for seed, joins, removals, msgs, revokes in churn_rows
        ],
    })
