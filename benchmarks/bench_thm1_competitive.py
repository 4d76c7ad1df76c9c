"""THM1 — RWW is 5/2-competitive vs the optimal lease-based algorithm.

Sweeps topology families × workload mixes × seeds, reporting RWW's
simulated message count against the per-edge DP lower bound on the optimal
offline lease-based algorithm.  The paper's claim: every ratio ≤ 5/2, with
the adversarial workload approaching it.
"""

from __future__ import annotations

import pytest

from repro import AggregationSystem, two_node_tree
from repro.analysis import competitive_ratio
from repro.tree.generators import standard_topologies
from repro.util import format_table
from repro.workloads import adv_sequence, uniform_workload, zipf_workload
from repro.workloads.requests import copy_sequence

LENGTH = 400
SEEDS = (0, 1, 2)


def run_sweep():
    rows = []
    topologies = standard_topologies(15, seed=7)
    for name, tree in sorted(topologies.items()):
        for read_ratio in (0.2, 0.5, 0.8):
            for seed in SEEDS:
                wl = uniform_workload(tree.n, LENGTH, read_ratio=read_ratio, seed=seed)
                rep = competitive_ratio(tree, wl, label=f"{name}")
                rows.append(
                    (name, tree.n, f"uniform r={read_ratio}", seed,
                     rep.algorithm_cost, rep.opt_lease_bound, rep.ratio_vs_opt)
                )
        wl = zipf_workload(tree.n, LENGTH, exponent=1.2, seed=5)
        rep = competitive_ratio(tree, wl)
        rows.append((name, tree.n, "zipf e=1.2", 5,
                     rep.algorithm_cost, rep.opt_lease_bound, rep.ratio_vs_opt))
    # The matching adversarial workload: ratio -> 5/2 exactly.
    tree = two_node_tree()
    wl = adv_sequence(1, 2, rounds=LENGTH)
    rep = competitive_ratio(tree, wl)
    rows.append(("pair(adv)", 2, "ADV(1,2)", 0,
                 rep.algorithm_cost, rep.opt_lease_bound, rep.ratio_vs_opt))
    return rows


@pytest.mark.benchmark(group="thm1")
def test_thm1_competitive_sweep(benchmark, emit):
    tree = standard_topologies(15, seed=7)["binary"]
    wl = uniform_workload(tree.n, LENGTH, read_ratio=0.5, seed=0)

    def one_run():
        return AggregationSystem(tree).run(copy_sequence(wl)).total_messages

    benchmark(one_run)
    rows = run_sweep()
    worst = max(r[-1] for r in rows)
    assert worst <= 2.5 + 1e-9
    adv_row = rows[-1]
    assert adv_row[-1] == pytest.approx(2.5, rel=0.01)
    text = format_table(
        ["topology", "n", "workload", "seed", "C_RWW", "C_OPT(lease)", "ratio"],
        rows,
        title=(
            "Theorem 1 — RWW vs optimal offline lease-based algorithm "
            f"(bound: 5/2; worst observed: {worst:.3f}):"
        ),
    )
    emit("thm1_competitive", text)
