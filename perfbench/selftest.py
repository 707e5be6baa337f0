"""Quick self-test of the benchmark: every workload, traced and untraced, at tiny sizes.

Runs ``run.run`` end to end (worker processes, checks, metric assembly) on
``cifar10_small`` at 16x16 for one second per workload and verifies the
result line against BENCHMARK.json.  Takes about half a minute::

    python3 perfbench/selftest.py

Exits non-zero on the first problem.  A check that fails because of a
known fault in the program is reported but tolerated; it is listed in
``KNOWN_FAULTS`` with where the fault lies.
"""

from __future__ import annotations

import math
import sys

import run

#: check name -> the program fault it exposes at the tiny sizes.
KNOWN_FAULTS = {
    "replay_bit_identical": (
        "finetune_b64: repro.nn.compiled adopts the 'merged' weight-gradient kernel after a probe on random "
        "operands; at this geometry it differs from Trainer(compiled=False) from the second step"
    ),
}


def check_run(workload: str, trace: int) -> list[str]:
    """Run one workload; return the problems found (empty when it passes)."""
    lines: list[str] = []
    result = run.run(workload, seed=1, seconds=1.0, trace=trace, sizes="tiny", log=lines.append)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    kind = "per_layer" if trace else "end_to_end"
    expected = [m["name"] for m in run.BENCHMARK[kind]]
    if list(result["metrics"]) != expected:
        problems.append(f"metrics {list(result['metrics'])} != {expected}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not math.isfinite(value) or (not trace and value <= 0):
            problems.append(f"{name} = {value}")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    failed_checks = set()
    for line in map(str.strip, lines):
        if line.startswith("check ") and ": FAILED" in line:
            name = line.split()[1].rstrip(":").split(".", 1)[1]
            failed_checks.add(name)
            if name not in KNOWN_FAULTS:
                problems.append(f"check failed: {line}")
    if result["correct"] == bool(failed_checks):
        problems.append(f"correct is {result['correct']} with failed checks {sorted(failed_checks)}")
    return problems


def main() -> int:
    failures = 0
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            problems = check_run(workload, trace)
            status = "ok" if not problems else "FAILED"
            print(f"{workload} trace={trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    for check, fault in KNOWN_FAULTS.items():
        print(f"known fault tolerated in check {check}: {fault}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
