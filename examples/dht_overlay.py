#!/usr/bin/env python3
"""Where the trees come from: SDIMS/Plaxton per-key aggregation overlays.

The paper assumes a tree is given.  In SDIMS-style systems each attribute
key gets its own tree, carved out of a DHT: every member routes toward the
key by fixing identifier bits, and the union of routes is a tree rooted at
the best-matching member.  This example builds several key trees over one
membership, shows the root/load spreading across keys, and runs the full
lease-based aggregation stack over one of them.

Run:  python examples/dht_overlay.py
"""

from __future__ import annotations

import random
from collections import Counter

from repro import AggregationSystem
from repro.consistency import check_strict_consistency
from repro.report import render_tree, summarize_run
from repro.tree.overlay import key_tree_family, plaxton_tree, random_membership
from repro.workloads import uniform_workload
from repro.workloads.requests import copy_sequence


def main() -> None:
    bits = 16
    ids = random_membership(20, bits=bits, seed=2)
    print(f"Membership: {len(ids)} machines with {bits}-bit DHT ids\n")

    print("== One tree per attribute key ==")
    rng = random.Random(7)
    keys = [rng.getrandbits(bits) for _ in range(8)]
    family = key_tree_family(ids, keys, bits=bits)
    root_counter = Counter(overlay.ids[overlay.root] for overlay in family.values())
    depth_stats = [max(o.tree.depths(o.root)) for o in family.values()]
    print(f"  8 keys -> {len(root_counter)} distinct roots "
          f"(load spread across members)")
    print(f"  tree depths: min {min(depth_stats)}, max {max(depth_stats)} "
          f"(bounded by id length)\n")

    key = keys[0]
    overlay = plaxton_tree(ids, key, bits=bits)
    print(f"== The tree for key {key:#06x} (root id {overlay.ids[overlay.root]:#06x}) ==")
    labels = {i: f"{overlay.ids[i]:#06x}" for i in overlay.tree.nodes()}
    print(render_tree(overlay.tree, root=overlay.root, labels=labels))

    print("\n== Lease-based aggregation over this overlay ==")
    system = AggregationSystem(overlay.tree)
    wl = uniform_workload(overlay.tree.n, 150, read_ratio=0.6, seed=4)
    result = system.run(copy_sequence(wl))
    system.check_quiescent_invariants()
    violations = check_strict_consistency(result.requests, overlay.tree.n)
    print(summarize_run(result, title=f"RWW over the key-{key:#06x} overlay"))
    print(f"strict consistency: {'OK' if not violations else 'VIOLATED'}")


if __name__ == "__main__":
    main()
