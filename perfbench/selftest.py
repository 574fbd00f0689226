"""Self-test of the benchmark at tiny sizes (about a minute).

From the repository root::

    python3 perfbench/selftest.py

For every workload it runs one timed run on two seeds and one traced run,
and checks that every metric named in BENCHMARK.json is printed with its
unit, that the traced run's self times plus the unattributed remainder add
up to its whole, and that a seed change changes the inputs but no metric
names.  Exits 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, trace: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(details line, result line) of one tiny run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    details = next(line["details"] for line in lines if "details" in line)
    return details, lines[-1]


def check_result(label: str, result: Dict[str, Any], declared: List[Dict[str, Any]],
                 problems: List[str]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys are {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    printed = result["metrics"]
    if set(printed) != {m["name"] for m in declared}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ {m['name'] for m in declared})}")
    for metric in declared:
        got = printed.get(metric["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {got.get('unit')!r} "
                            f"!= {metric['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {metric['name']} value {value!r}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    problems: List[str] = []
    for workload in (w["name"] for w in declared["workloads"]):
        first, result = bench(workload, 1, 0)
        check_result(f"{workload} seed 1", result, declared["end_to_end"], problems)
        for name in ("wall_s", "setup_s", "cpu_s", "virtual_time"):
            if not result["metrics"].get(name, {}).get("value"):
                problems.append(f"{workload}: {name} is zero")
        second, other = bench(workload, 2, 0)
        check_result(f"{workload} seed 2", other, declared["end_to_end"], problems)
        if first["inputs"] == second["inputs"]:
            problems.append(f"{workload}: seeds 1 and 2 generated the same inputs")
        if set(result["metrics"]) != set(other["metrics"]):
            problems.append(f"{workload}: a seed change changed the metric names")

        traced, layered = bench(workload, 1, 1)
        check_result(f"{workload} traced", layered, declared["per_layer"], problems)
        books = traced["accounting"]
        total = sum(books["self_s"].values()) + books["unattributed_s"]
        if not books["ok"] or books["nesting_violations"]:
            problems.append(f"{workload}: traced accounting failed: {books}")
        if abs(total - books["whole_s"]) > 1e-6 * max(1.0, books["whole_s"]):
            problems.append(f"{workload}: self times {total} != whole {books['whole_s']}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
