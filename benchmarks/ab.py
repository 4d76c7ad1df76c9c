"""The performance gate: the repository benchmark on two revisions, one host.

Usage::

    python3 benchmarks/ab.py BASE [HEAD]

exports BASE and HEAD (default ``HEAD``) with ``git archive`` into fresh
directories ``.bench_ab/base`` and ``.bench_ab/head``, runs
``benchmarks/suite/run.py --scale 0.1 --repeats 3`` in each, one after the
other, and judges HEAD against BASE with the suite's ``compare_results``
and the bounds in ``BENCHMARK.json``.  It exits 1 when either suite run
fails, when a count differs between repeats of one seed, or when any
(workload, end-to-end metric) verdict is ``worse``.  ``unresolved``
verdicts pass: the spread of the runs is wider than the bound.

Both sides are fresh exports, so neither starts with ``__pycache__`` and
each runs from its own directory.  Each side takes about five minutes on a
2-CPU host.  The results stay in
``.bench_ab/{base,head}/.bench_out/results.json``.
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
SUITE_ARGS = ["--scale", "0.1", "--repeats", "3"]

sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))
from run import compare_results, load_benchmark, run_compare  # noqa: E402


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
    problems = []
    for side, commit in sides.items():
        dest = WORK / side
        export(commit, dest)
        print(f"ab: {side} = {commit} in {dest}", flush=True)
        t0 = time.perf_counter()
        cmd = [sys.executable, "benchmarks/suite/run.py", *SUITE_ARGS]
        rc = subprocess.run(cmd, cwd=dest).returncode
        print(f"ab: {side} suite took {time.perf_counter() - t0:.0f} s, exit {rc}", flush=True)
        if rc != 0:
            problems.append(f"{side} suite run exited {rc}")
    paths = [WORK / side / ".bench_out" / "results.json" for side in sides]
    if all(path.exists() for path in paths):
        run_compare(*map(str, paths))
        problems += judge(*(json.loads(path.read_text()) for path in paths))
    else:
        problems.append("a suite run wrote no results.json")
    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"ab: {'FAIL' if problems else 'pass'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
