"""The performance gate: the repository benchmark on two revisions, one host.

Usage::

    python3 benchmarks/ab.py BASE [HEAD]

exports BASE and HEAD (default ``HEAD``) with ``git archive`` into fresh
directories ``.bench_ab/base`` and ``.bench_ab/head`` and runs
``benchmarks/suite/run.py --scale 0.1 --repeats 1`` three times in each,
alternating which side goes first (base-head, head-base, base-head), so
drift of the host during the gate lands on both sides alike.  Each run
writes its own ``.bench_out/run<i>``; the three are merged (every metric's
values concatenated and re-described, ``attempted`` and ``failed``
summed) into ``.bench_ab/{base,head}/.bench_out/results.json``.  HEAD is
then judged against BASE with the suite's ``compare_results`` and the
bounds in ``BENCHMARK.json``.  It exits 1 when any suite run fails, when
a count differs between runs of one seed, or when any (workload,
end-to-end metric) verdict is ``worse``.  ``unresolved`` verdicts pass:
the spread of the runs is wider than the bound.

Both sides are fresh exports, so neither starts with ``__pycache__`` and
each runs from its own directory.  Each side takes about five minutes on a
2-CPU host.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_ab"
SUITE_ARGS = ["--scale", "0.1", "--repeats", "1"]
#: Which side runs first in each round.
ORDER = (("base", "head"), ("head", "base"), ("base", "head"))

sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))
from run import compare_results, describe, load_benchmark, run_compare  # noqa: E402


def judge(base: Dict[str, Any], head: Dict[str, Any]) -> List[str]:
    """Why HEAD fails against BASE (empty when it passes): each ``worse``
    verdict and each count that differs between repeats of one seed."""
    report = compare_results(base, head, load_benchmark())
    worse = [
        f"{w} {name} worse"
        for w, verdicts in report["verdicts"].items()
        for name, v in verdicts.items()
        if v == "worse"
    ]
    return worse + report["errors"]


def merge(docs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One suite document from several runs of one side: every metric's
    values concatenated and re-described, ``attempted`` and ``failed``
    summed."""
    def section(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
        units = {name: s["unit"] for part in parts for name, s in part.items()}
        return {
            name: dict(describe([v for part in parts if name in part
                                 for v in part[name]["values"]]), unit=unit)
            for name, unit in units.items()
        }

    workloads = {}
    for w in docs[0]["workloads"]:
        runs = [d["workloads"][w] for d in docs]
        workloads[w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": section([r["end_to_end"] for r in runs]),
            "per_layer": section([r["per_layer"] for r in runs]),
        }
    return dict(docs[0], repeats=sum(d["repeats"] for d in docs), workloads=workloads)


def commit_of(rev: str) -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"ab: {rev!r} is not a commit")
    return proc.stdout.strip()


def export(commit: str, dest: pathlib.Path) -> None:
    """A fresh copy of *commit*'s files at *dest*."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", commit], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        raise SystemExit("usage: ab.py BASE [HEAD]")
    sides = {"base": commit_of(argv[0]), "head": commit_of((argv + ["HEAD"])[1])}
    for side, commit in sides.items():
        export(commit, WORK / side)
        print(f"ab: {side} = {commit} in {WORK / side}", flush=True)
    problems = []
    docs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in sides}
    for i, order in enumerate(ORDER, start=1):
        for side in order:
            out = WORK / side / ".bench_out" / f"run{i}"
            cmd = [sys.executable, "benchmarks/suite/run.py", *SUITE_ARGS, "--out", str(out)]
            t0 = time.perf_counter()
            rc = subprocess.run(cmd, cwd=WORK / side).returncode
            took = time.perf_counter() - t0
            print(f"ab: {side} run {i} took {took:.0f} s, exit {rc}", flush=True)
            if rc != 0:
                problems.append(f"{side} suite run {i} exited {rc}")
            if (out / "results.json").exists():
                docs[side].append(json.loads((out / "results.json").read_text()))
    paths = [WORK / side / ".bench_out" / "results.json" for side in sides]
    if all(len(runs) == len(ORDER) for runs in docs.values()):
        merged = [merge(docs[side]) for side in sides]
        for doc, path in zip(merged, paths):
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        run_compare(*map(str, paths))
        problems += judge(*merged)
    else:
        problems.append("a suite run wrote no results.json")
    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"ab: {'FAIL' if problems else 'pass'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
