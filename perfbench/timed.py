"""The timed run: end-to-end metrics with tracing off.

A run makes its datasets from the seed, makes one untimed warm-up
operation, then cycles over the datasets (interleaved, so a drift in host
speed touches all of them) until the measuring time has passed.  Set-up is
measured in fresh processes started between the first operations, so its
samples also meet the host at different moments.  Every operation's
outputs are checked; see METRICS.md.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

import reference
import workloads
from workloads import mismatches

#: Set-up samples per run, after one dropped sample that warms the file
#: cache; the median is reported.
SETUP_PROBES = 9
#: An operation still running after this many seconds counts as failed.
OPERATION_LIMIT_S = 40
#: No operation starts later than this many seconds into the measurement.
HARD_STOP_S = 100
#: Submits a stream run takes at least, so its tail stays at one percentile.
STREAM_MIN_SUBMITS = 200
#: Tail percentiles tried, highest first; see :func:`tail`.
TAIL_LADDER = (99.0, 95.0, 90.0)
#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10
#: Iterations of the host-speed probe loop timed before every operation.
PROBE_LOOPS = 200_000


def probe_seconds() -> float:
    """Time a fixed pure-Python loop: a gauge of host speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


# -- memory and CPU -------------------------------------------------------------


def reset_peak_rss() -> None:
    """Start a fresh driver high-water mark (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then covers the whole process so far


def driver_peak_kb() -> int:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# -- statistics -----------------------------------------------------------------


def tail(samples: List[float]) -> Dict[str, Any]:
    """The highest ladder percentile with at least ``TAIL_BEYOND`` samples
    beyond it; the maximum when there are too few samples for any."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            cuts = statistics.quantiles(ordered, n=100, method="inclusive")
            return {"value": cuts[int(pct) - 1], "percentile": pct, "samples": n}
    return {"value": ordered[-1], "percentile": "max", "samples": n}


def mean_of_medians(per_dataset: Dict[int, List[float]]) -> float:
    return statistics.fmean(statistics.median(v) for v in per_dataset.values() if v)


class OperationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OperationTimeout(f"operation ran past {OPERATION_LIMIT_S} s")


class TimedRun:
    """Cycle over the run's datasets until ``seconds`` have been measured."""

    def __init__(self, workload, seed: int, scale: str,
                 setup_probe: Callable[[], float]) -> None:
        self.workload = workload
        self.setup_probe = setup_probe
        self.setup: List[float] = []
        entities, count = workload.size(scale)
        self.seeds = workloads.dataset_seeds(seed, count)
        self.datasets = [workloads.make_dataset(workload, entities, s) for s in self.seeds]
        table = reference.load() if scale == "full" else {}
        self.expected: List[Optional[Dict[str, Any]]] = [
            reference.lookup(table, workload.name, s) for s in self.seeds
        ]
        self.walls: Dict[int, List[float]] = {i: [] for i in range(count)}
        self.cpus: Dict[int, List[float]] = {i: [] for i in range(count)}
        self.latencies: List[float] = []
        self.probes: List[float] = []
        self.outputs: Dict[int, Dict[str, Any]] = {}
        self.peak_kb = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _operation(self, index: int, record: bool) -> None:
        """One checked operation on dataset ``index``; timings are kept
        when ``record`` is set and the outputs pass their checks."""
        workload, dataset = self.workload, self.datasets[index]
        stream = workload.kind == "stream"
        if len(self.setup) <= SETUP_PROBES:
            self.setup.append(self.setup_probe())
        self.probes.append(probe_seconds())
        if stream:
            service = workloads.build_stream(workload)
            batches = workloads.batches_of(dataset)
        else:
            run = workloads.build_oneshot(workload, dataset, self.seeds[index])
        latencies: List[float] = []
        reset_peak_rss()
        cpu_start = cpu_seconds()
        signal.alarm(OPERATION_LIMIT_S)
        try:
            start = time.perf_counter()
            if stream:
                for batch in batches:
                    before = time.perf_counter()
                    service.submit(batch)
                    latencies.append(time.perf_counter() - before)
            else:
                result = run.run()
                latencies.append(time.perf_counter() - start)
            wall = time.perf_counter() - start
        except Exception as error:  # a failed operation is counted, not fatal
            self.attempted += len(latencies) + 1
            self.failed += 1
            self.problems.append(f"dataset {self.seeds[index]}: {error!r}")
            return
        finally:
            signal.alarm(0)
        cpu = cpu_seconds() - cpu_start
        peak = driver_peak_kb()
        got = (workloads.stream_outputs(service, dataset) if stream
               else workloads.oneshot_outputs(result, dataset))
        # Against the recorded reference, else against this run's first
        # result for the dataset (every repetition must agree).
        bad = mismatches(got, self.expected[index] or self.outputs.get(index) or {})
        self.outputs.setdefault(index, got)
        self.attempted += len(latencies)
        if bad:
            self.failed += len(latencies)
            self.problems.append(f"dataset {self.seeds[index]}: {bad} differ")
            return
        if record:
            self.walls[index].append(wall)
            self.cpus[index].append(cpu)
            self.latencies.extend(latencies)
            self.peak_kb = max(self.peak_kb, peak)

    def measure(self, seconds: float) -> None:
        """A warm-up operation, then cycles over the datasets until
        ``seconds`` have passed (at least one whole cycle)."""
        previous = signal.signal(signal.SIGALRM, _alarm)
        try:
            self._operation(0, record=False)
            count = len(self.datasets)
            wanted = STREAM_MIN_SUBMITS if self.workload.kind == "stream" else 0
            start = time.perf_counter()
            done = 0
            while time.perf_counter() - start < HARD_STOP_S and (
                done < count or time.perf_counter() - start < seconds
                or len(self.latencies) < wanted
            ):
                self._operation(done % count, record=True)
                done += 1
        finally:
            signal.signal(signal.SIGALRM, previous)
        while len(self.setup) <= SETUP_PROBES:
            self.setup.append(self.setup_probe())

    def check_unreferenced(self) -> Optional[str]:
        """Without a recorded reference, compare the first dataset with a
        serial pass (serial and process must agree bit for bit)."""
        if self.expected[0] is not None:
            return "recorded"
        if 0 not in self.outputs:
            return None
        want = reference.serial_outputs(self.workload, self.datasets[0], self.seeds[0])
        bad = mismatches(self.outputs[0], want)
        if bad:
            self.failed += 1
            self.problems.append(f"dataset {self.seeds[0]}: {bad} differ from serial")
        self.attempted += 1
        return "serial-pass"

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        done = [i for i in self.walls if self.walls[i]]
        values: Dict[str, Any] = {
            "setup_s": (statistics.median(self.setup[1:]), "s"),
            "wall_s": (mean_of_medians(self.walls), "s"),
            "cpu_s": (mean_of_medians(self.cpus), "s"),
            "peak_rss_mb": ((self.peak_kb + children_kb) / 1024.0, "MB"),
            "submit_p50_ms": (statistics.median(self.latencies) * 1000.0, "ms"),
            "submit_tail_ms": (tail(self.latencies)["value"] * 1000.0, "ms"),
        }
        for name in ("final_recall", "precision", "recall_auc", "virtual_time"):
            unit = "cost_units" if name == "virtual_time" else "ratio"
            values[name] = (statistics.fmean(self.outputs[i][name] for i in done), unit)
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(workload, seed: int, scale: str, seconds: float,
        setup_probe: Callable[[], float]) -> Dict[str, Any]:
    """The timed run; ``setup_probe`` measures set-up in a fresh process."""
    timed = TimedRun(workload, seed, scale, setup_probe)
    timed.measure(seconds)
    reference_source = timed.check_unreferenced()
    metrics = timed.metrics() if any(timed.walls.values()) else {}
    print(json.dumps({"details": {
        "workload": workload.name, "seed": seed, "scale": scale,
        "inputs": workloads.input_digest(timed.datasets),
        "dataset_seeds": timed.seeds,
        "timed_operations": sum(len(v) for v in timed.walls.values()),
        "submit_tail": {k: v for k, v in tail(timed.latencies).items() if k != "value"}
        if timed.latencies else None,
        "setup_samples_s": timed.setup[1:], "reference": reference_source,
        "probe_s": timed.probes,
        "wall_samples_s": {str(timed.seeds[i]): v for i, v in timed.walls.items()},
        "problems": timed.problems,
    }}))
    return {
        "correct": timed.failed == 0 and bool(metrics),
        "attempted": max(1, timed.attempted),
        "failed": timed.failed if metrics else max(1, timed.failed),
        "metrics": metrics,
    }
