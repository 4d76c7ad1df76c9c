"""Check the benchmark suite's output contract on every workload.

For each workload, untraced and traced, run one short round of
``benchmarks/suite/run.py`` and fail unless:

* the run exits 0;
* its last stdout line parses as a JSON object with ``"correct": true``,
  parsed strictly (``NaN``, ``Infinity`` and ``-Infinity`` are rejected,
  as a strict JSON reader would);
* its stderr holds no ``warning:`` line (the tracer warns when an entry
  point no longer resolves and its layer goes absent, and a round warns
  when it cannot read a count).

Usage::

    python3 benchmarks/check_contract.py

Runs one at a time; the eight take about 40 s on a 2-CPU host.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from typing import Any, List

RUN = pathlib.Path(__file__).resolve().parent / "suite" / "run.py"
WORKLOADS = ("seq", "flat", "chaos", "serve")


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not JSON")


def check(workload: str, trace: int) -> List[str]:
    """The contract breaches of one short run (empty when it holds)."""
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", "1",
        "--seconds", "1", "--scale", "0.05", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(f"last stdout line is not strict JSON ({exc}): {last[:200]!r}")
    else:
        if not isinstance(result, dict) or result.get("correct") is not True:
            problems.append(f"last stdout line is not a correct result: {last[:200]!r}")
    problems += [
        f"stderr: {line}" for line in proc.stderr.splitlines()
        if line.lstrip().startswith("warning:")
    ]
    if proc.returncode != 0 and proc.stderr.strip():
        problems.append("stderr tail: " + " | ".join(proc.stderr.splitlines()[-5:]))
    return problems


def main() -> int:
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace)
            print(f"{workload:<6} --trace {trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"    {problem}")
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
