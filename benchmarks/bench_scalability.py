"""SCALE — message and wall-time scaling with tree size, per backend.

Not a paper table (the paper has no testbed), but the natural systems
question a release must answer: how do RWW's message counts and the
simulator's throughput scale with n across topology families?  Message
counts per request should grow with the pull/push span (diameter for paths,
O(1)-ish amortized for stars), and the simulator should stay comfortably
laptop-scale at hundreds of nodes.

Since the execution-backend seam, every size runs on both backends where
feasible: the ``reference`` object-graph runtime up to n=1023 and the
``flat`` vectorized engine everywhere — including the 2047/4095 sizes the
reference backend is too slow to sweep.  Message counts must be identical
wherever both ran (the equivalence contract); the flat backend must beat
the reference by >=10x at the n=1023 path size (the seam's headline
number).
"""

from __future__ import annotations

import time

import pytest

from repro import AggregationSystem, balanced_kary_tree, path_tree, star_tree
from repro.util import format_table
from repro.workloads import uniform_workload
from repro.workloads.requests import copy_sequence

SIZES = (7, 15, 31, 63, 127, 255)
#: Extra sizes for the families whose message span actually grows with n
#: (path: diameter; binary: depth).  A 1023-leaf star adds no scaling
#: signal over 255 — its pull/push span is O(1) — so it is excluded.
LARGE_SIZES = (511, 1023)
#: Flat-backend-only sizes: the reference runtime takes tens of seconds
#: per 300-request run here, the flat engine stays sub-second.
XLARGE_SIZES = (2047, 4095)
LENGTH = 300
#: The seam's acceptance bar: flat over reference at the n=1023 path size.
FLAT_SPEEDUP_FLOOR = 10.0


def sizes_for(kind: str):
    return SIZES + (LARGE_SIZES if kind in ("path", "binary") else ())


def backends_for(kind: str, n: int):
    """Which backends sweep this cell: reference up to n=1023, flat always."""
    return ("reference", "flat") if n <= 1023 else ("flat",)


def topo(kind, n):
    if kind == "path":
        return path_tree(n)
    if kind == "star":
        return star_tree(n)
    if kind == "binary":
        import math

        depth = int(math.log2(n + 1)) - 1
        return balanced_kary_tree(2, depth)
    raise ValueError(kind)


def run_cell(kind: str, n: int, backend: str):
    tree = topo(kind, n)
    wl = uniform_workload(tree.n, LENGTH, read_ratio=0.5, seed=41)
    system = AggregationSystem(tree, backend=backend)
    t0 = time.perf_counter()
    result = system.run(copy_sequence(wl))
    dt = time.perf_counter() - t0
    return (kind, tree.n, backend, result.total_messages,
            result.total_messages / LENGTH, LENGTH / dt)


def run_scaling():
    rows = []
    for kind in ("path", "star", "binary"):
        for n in sizes_for(kind) + (XLARGE_SIZES if kind in ("path", "binary") else ()):
            for backend in backends_for(kind, n):
                rows.append(run_cell(kind, n, backend))
    return rows


@pytest.mark.benchmark(group="scale")
@pytest.mark.parametrize("n", [15, 63, 255])
@pytest.mark.parametrize("backend", ["reference", "flat"])
def test_scalability_run(benchmark, n, backend):
    tree = topo("binary", n)
    wl = uniform_workload(tree.n, LENGTH, read_ratio=0.5, seed=41)
    benchmark(
        lambda: AggregationSystem(tree, backend=backend)
        .run(copy_sequence(wl))
        .total_messages
    )


@pytest.mark.benchmark(group="scale")
def test_flat_speedup_at_path_1023(benchmark):
    """The seam's acceptance number: flat >= 10x reference throughput on
    the 300-request n=1023 path workload.

    Best-of-3 interleaved runs per backend: single cold runs on a shared
    box jitter by +-30%, which is enough to produce false failures at a
    10x floor when the true ratio sits near 11x.  Interleaving keeps both
    backends exposed to the same background load.
    """
    def measure():
        refs, flats = [], []
        for _ in range(3):
            refs.append(run_cell("path", 1023, "reference"))
            flats.append(run_cell("path", 1023, "flat"))
        return max(refs, key=lambda r: r[5]), max(flats, key=lambda r: r[5])

    ref, flat = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert ref[3] == flat[3], "backends disagree on message count"
    speedup = flat[5] / ref[5]
    assert speedup >= FLAT_SPEEDUP_FLOOR, (
        f"flat backend only {speedup:.1f}x reference at n=1023 path "
        f"(floor {FLAT_SPEEDUP_FLOOR:.0f}x)"
    )


@pytest.mark.benchmark(group="scale")
def test_scalability_table(benchmark, emit, emit_json):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    for kind in ("path", "star", "binary"):
        for backend in ("reference", "flat"):
            series = [r[3] for r in rows if r[0] == kind and r[2] == backend]
            # Sanity: message cost grows with n for every family/backend.
            assert series == sorted(series)
    # Equivalence: identical message counts wherever both backends ran.
    by_cell = {}
    for kind, n, backend, messages, _, _ in rows:
        by_cell.setdefault((kind, n), {})[backend] = messages
    for (kind, n), cells in by_cell.items():
        if len(cells) == 2:
            assert cells["reference"] == cells["flat"], (kind, n, cells)
    text = format_table(
        ["topology", "n", "backend", "messages", "msgs/request", "requests/sec"],
        rows,
        title=f"SCALE — RWW message and throughput scaling ({LENGTH} requests, r=0.5):",
    )
    emit("scalability", text)
    emit_json("scalability", {
        "benchmark": "scalability",
        "length": LENGTH,
        "rows": [
            {"topology": r[0], "n": r[1], "backend": r[2], "messages": r[3],
             "messages_per_request": round(r[4], 4),
             "requests_per_sec": round(r[5], 1)}
            for r in rows
        ],
    })
