"""The A/B performance gate's decision (``benchmarks/ab.py``).

``judge`` reads two suite ``results.json`` documents through the suite's
own ``compare_results`` and the bounds in ``BENCHMARK.json``.  These
documents are synthetic: every workload, every end-to-end metric, three
repeats each.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import ab  # noqa: E402
import run  # noqa: E402  (benchmarks/suite/run.py, put on the path by ab)

#: One value per end-to-end metric, near what a scale-0.1 suite reads.
TYPICAL = {
    "throughput_rps": 1000.0,
    "combine_p50_us": 400.0,
    "combine_p90_us": 900.0,
    "write_p50_us": 80.0,
    "write_p90_us": 120.0,
    "msgs_per_req": 7.0652,
    "cost_ratio": 1.6034,
    "setup_s": 0.004,
    "rss_mb": 100.0,
}


def _stat(values, unit):
    return dict(run.describe(list(values)), unit=unit)


def results():
    """A suite document whose time metrics spread by 1% over repeats and
    whose counts repeat exactly."""
    workloads = {}
    for w in ("seq", "flat", "chaos", "serve"):
        end_to_end = {}
        for name, unit, _ in run.END_TO_END:
            v = TYPICAL[name]
            spread = (v, v, v) if name in run.COUNT_METRICS else (0.99 * v, v, 1.01 * v)
            end_to_end[name] = _stat(spread, unit)
        per_layer = {
            "core.mechanism.deliveries_per_req": _stat((7.1316,) * 3, "count"),
            "core.mechanism.self_us_per_req": _stat((115.0, 116.0, 117.0), "us"),
        }
        workloads[w] = {"attempted": 300, "failed": 0,
                        "end_to_end": end_to_end, "per_layer": per_layer}
    return {"seed": 1, "repeats": 3, "scale": 0.1, "seconds": 15,
            "inject": None, "workloads": workloads}


def with_values(doc, w, section, name, values):
    doc = copy.deepcopy(doc)
    unit = doc["workloads"][w][section][name]["unit"]
    doc["workloads"][w][section][name] = _stat(values, unit)
    return doc


def test_identical_results_pass():
    assert ab.judge(results(), results()) == []


def test_throughput_drop_with_tight_repeats_fails_naming_the_metric():
    head = with_values(results(), "seq", "end_to_end", "throughput_rps", (594.0, 600.0, 606.0))
    assert ab.judge(results(), head) == ["seq throughput_rps worse"]


@pytest.mark.parametrize("name", ["msgs_per_req", "cost_ratio"])
def test_a_count_compares_exactly(name):
    v = TYPICAL[name] + 0.1
    head = with_values(results(), "seq", "end_to_end", name, (v, v, v))
    assert ab.judge(results(), head) == [f"seq {name} worse"]


def test_a_count_that_differs_between_repeats_fails():
    head = with_values(results(), "seq", "per_layer",
                       "core.mechanism.deliveries_per_req", (7.1316, 7.1316, 7.2))
    problems = ab.judge(results(), head)
    assert len(problems) == 1
    assert "seq core.mechanism.deliveries_per_req differs between repeats" in problems[0]


def test_unresolved_verdicts_alone_pass():
    # serve's throughput falls by 30% in the median, but its repeats
    # spread wider than the 25% bound and overlap the base's.
    head = with_values(results(), "serve", "end_to_end", "throughput_rps", (400.0, 700.0, 1100.0))
    report = run.compare_results(results(), head, run.load_benchmark())
    assert report["verdicts"]["serve"]["throughput_rps"] == "unresolved"
    assert ab.judge(results(), head) == []
