"""End-to-end benchmark of the progressive ER pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload books-oneshot --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload on the process backend (2 workers) with
tracing off and prints the end-to-end metrics; ``--trace 1`` makes the
separate traced run (see ``traced.py``) and prints the per-layer metrics.
Every operation's outputs are checked.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it carry the host fingerprint and run details.  METRICS.md
defines every metric.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

def host_fingerprint() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # numpy is optional in the program
        numpy_version = None
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        git = describe.stdout.strip() if describe.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    return {
        "cpus_visible": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": git or "unknown",
    }


# -- set-up -------------------------------------------------------------------


def setup_probe(workload_name: str) -> float:
    """Seconds to import the program and build a ready run object, in this
    (fresh) process.  Input generation is not part of set-up."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401
    from workloads import WORKLOADS, build_oneshot, build_stream

    workload = WORKLOADS[workload_name]
    if workload.kind == "stream":
        build_stream(workload)
    else:
        build_oneshot(workload, None, 0)
    return time.perf_counter() - start


def measure_setup(workload_name: str) -> float:
    """Set-up seconds of one fresh process (see :func:`setup_probe`)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload_name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class SetupProber:
    """Measures set-up on request, through a helper process.

    A spawned process starts with its parent's resident size as its peak,
    and every child's peak enters ``peak_rss_mb``.  So set-up probes are
    spawned by a helper started while the benchmark is still small, never
    by the benchmark once it holds its inputs.  The helper measures one
    probe per line read and exits when its input closes.
    """

    def __init__(self, workload_name: str) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-helper",
             "--workload", workload_name],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self._helper.stdin.write("probe\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def close(self) -> None:
        try:
            self._helper.stdin.close()
            self._helper.stdout.close()
            self._helper.wait(timeout=60)
        finally:
            if self._helper.poll() is None:
                self._helper.kill()
                self._helper.wait()


def stop_children() -> None:
    """Stop every process the program started here and wait for each.

    Worker processes left by an interrupted job are terminated.  The
    multiprocessing resource tracker, which the program's shared-memory
    segments start, is stopped too: left alone it outlives this process.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="dataset sizes; 'tiny' is for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-helper", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return measure(parser, args)
    finally:
        stop_children()


def measure(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.setup_probe:
        print(repr(setup_probe(args.workload)))
        return 0
    if args.setup_helper:
        for _ in sys.stdin:
            print(repr(measure_setup(args.workload)), flush=True)
        return 0

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    prober = None if args.trace else SetupProber(args.workload)
    sys.path.insert(0, str(ROOT / "src"))
    import timed
    import traced
    from workloads import WORKLOADS

    try:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"pick one of {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        host = host_fingerprint()
        host["probe_s"] = timed.probe_seconds()
        print(json.dumps({"host": host}))
        if args.trace:
            result = traced.run(workload, args.seed, args.scale)
        else:
            result = timed.run(workload, args.seed, args.scale, args.seconds, prober)
    finally:
        if prober is not None:
            prober.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
