"""Run-to-run spread of the end-to-end metrics over several seeds.

From the repository root::

    python3 perfbench/spread.py --seeds 1-10 --out spread.json
    python3 perfbench/spread.py --seeds 1-10 --against spread.json

Runs every workload of BENCHMARK.json once per seed, interleaving the
workloads so that a drift in host speed spreads over all of them.  For each
workload and end-to-end metric it prints the median and the distance
between the first and third quartile as a share of the median, next to the
metric's bound.  With ``--against`` it also prints how much worse each
median is than the one in an earlier ``--out`` file, as a share of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("1-10"))
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    names = args.workload or [w["name"] for w in declared["workloads"]]
    runs = {name: [] for name in names}
    failures = 0
    for seed in args.seeds:
        for name in names:
            done = subprocess.run(
                declared["command"] + ["--workload", name, "--seed", str(seed),
                                       "--seconds", str(declared["run_seconds"]),
                                       "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = [json.loads(line) for line in done.stdout.splitlines()
                     if line.startswith("{")] if done.returncode == 0 else []
            result = lines[-1] if lines else None
            if result is None or not result["correct"]:
                failures += 1
                print(f"{name} seed {seed}: FAILED\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
                continue
            details = next(line["details"] for line in lines if "details" in line)
            result["details"] = details
            runs[name].append(result)
            print(f"{name} seed {seed}: wall_s={result['metrics']['wall_s']['value']:.4f}"
                  f" probe_ms={1000 * statistics.median(details['probe_s']):.2f}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1)
    earlier = None
    if args.against:
        with open(args.against) as handle:
            earlier = json.load(handle)
    for name in names:
        print(f"\n{name} ({len(runs[name])} runs)")
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"  {metric['name']:16s} median {median:12.5g}  spread {spread:6.3f}"
                    f"  bound {metric['bound']:.2f}  "
                    f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
            if earlier and earlier.get(name):
                before = statistics.median(
                    r["metrics"][metric["name"]]["value"] for r in earlier[name])
                worse = (median - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  worse-than-before {worse:+.3f}"
            print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
