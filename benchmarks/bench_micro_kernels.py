"""Microbenchmarks for the hot kernels under everything else.

Not a paper artifact — a regression guard for the implementation: pair
comparisons dominate real runtime, blocking and schedule generation
dominate the per-run setup.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

from repro.blocking import build_forests, citeseer_scheme
from repro.core.config import citeseer_config
from repro.core.estimation import EstimationModel, UniformEstimator
from repro.core.schedule import generate_schedule
from repro.core.statistics import run_statistics_job
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import Cluster, CostModel, ParallelExecutor, SerialExecutor
from repro.similarity import (
    BatchMatcher,
    books_matcher,
    citeseer_matcher,
    clear_similarity_cache,
    jaro_winkler,
    levenshtein,
)


def _random_string(rng, length):
    return "".join(rng.choice("abcdefghij ") for _ in range(length))


@pytest.mark.parametrize("length", [20, 60, 150])
def test_levenshtein_throughput(benchmark, length):
    rng = random.Random(0)
    pairs = [
        (_random_string(rng, length), _random_string(rng, length))
        for _ in range(50)
    ]

    def kernel():
        return sum(levenshtein(a, b) for a, b in pairs)

    total = benchmark(kernel)
    assert total > 0


def test_jaro_winkler_throughput(benchmark):
    rng = random.Random(1)
    pairs = [(_random_string(rng, 20), _random_string(rng, 20)) for _ in range(100)]

    def kernel():
        return sum(jaro_winkler(a, b) for a, b in pairs)

    total = benchmark(kernel)
    assert total >= 0


def test_matcher_throughput(benchmark, citeseer_dataset):
    matcher = citeseer_matcher()  # uncached: measure the real kernel
    rng = random.Random(2)
    pairs = [tuple(rng.sample(citeseer_dataset.entities, 2)) for _ in range(40)]

    def kernel():
        return sum(BatchMatcher(matcher).decisions(pairs))

    benchmark(kernel)


def test_blocking_throughput(benchmark, citeseer_dataset):
    scheme = citeseer_scheme()
    forests = benchmark(build_forests, citeseer_dataset, scheme)
    assert sum(f.num_blocks for f in forests.values()) > 0


def test_statistics_job_throughput(benchmark, citeseer_dataset):
    scheme = citeseer_scheme()
    cluster = Cluster(10)

    def kernel():
        return run_statistics_job(cluster, citeseer_dataset, scheme)

    _, stats, _ = benchmark(kernel)
    assert stats.num_blocks > 0


def test_schedule_generation_throughput(benchmark, citeseer_dataset):
    scheme = citeseer_scheme()
    cluster = Cluster(10)
    config = citeseer_config()

    def fresh_stats():
        # generate_schedule mutates the statistics trees (elimination and
        # splits), so every round gets a fresh copy.
        _, stats, _ = run_statistics_job(cluster, citeseer_dataset, scheme)
        return (stats,), {}

    def kernel(stats):
        model = EstimationModel(
            config, CostModel(), UniformEstimator(0.05), len(citeseer_dataset)
        )
        return generate_schedule(stats, model, config, 20, strategy="ours")

    schedule = benchmark.pedantic(kernel, setup=fresh_stats, rounds=3, iterations=1)
    assert schedule.num_blocks > 0


# ---------------------------------------------------------------------------
# Execution backends: serial versus process wall-clock (FIG10 workload)
# ---------------------------------------------------------------------------

BACKEND_BENCH_MACHINES = [5, 20]  # μ values; θ shrinks as μ grows
BACKEND_BENCH_WORKERS = 4  # requested; clamped to the CPU affinity mask at run time
BACKEND_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel_backend.json"

#: PR 4's measured ``ipc_payload_bytes`` on this exact workload: it shipped
#: whole encoded partitions back over the result queue.  The shared-memory
#: data plane must keep the queue down to descriptors — at least 5x below
#: these numbers, machine-independently.
PR4_RESULT_QUEUE_BYTES = {5: 43188, 20: 53950}


def _visible_cpus() -> int:
    """CPUs this process may actually run on (the affinity mask, not the
    box).  Container runners routinely pin pytest to a slice of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed_fig10_run(dataset, machines, executor):
    """One FIG10-style progressive run on the books workload, wall-clocked.

    Every run starts from a cold similarity memo and a fresh (uncached)
    matcher so neither backend inherits the other's warm state.
    """
    from repro.core import books_config

    clear_similarity_cache()
    start = time.perf_counter()
    run = ExperimentRun(
        RunSpec(dataset, books_config(), machines=machines, executor=executor)
    ).run()
    elapsed = time.perf_counter() - start
    return run, elapsed


def test_parallel_backend_wall_clock(books_dataset, report):
    """Serial versus process backend on the FIG10 bench workload.

    Emits ``BENCH_parallel_backend.json`` with the per-μ wall-clock
    trajectory plus the runtime's machine-independent efficiency facts:
    pool forks per run (must stay ≤ one per job), payload wire bytes
    versus the plain-pickle baseline (must stay ≥3x smaller), result-queue
    descriptor bytes versus PR 4's full-payload queues (must stay ≥5x
    smaller while shared memory is up), and the work-stealing counters
    (steals taken, worker idle time).  Worker count is clamped to the CPU
    affinity mask and both the requested and effective values are
    recorded.  Virtual-time results must agree exactly across backends
    (that is the determinism contract); the speedup expectation only
    applies where the hardware can deliver it, so runs on affinity-limited
    hosts are annotated ``parallelism_limited`` and skip that assertion.
    """
    cpus = _visible_cpus()
    # Clamp to the affinity mask, but never below two workers: the
    # transport facts (wire/descriptor/steal counters) are machine-
    # independent and need a real fan-out to exist, while the wall-clock
    # speedup assertion is already gated on ``parallelism_limited``.
    workers = min(BACKEND_BENCH_WORKERS, max(2, cpus))
    parallelism_limited = cpus < BACKEND_BENCH_WORKERS
    entries = []
    lines = [
        f"parallel backend wall-clock — books x{len(books_dataset)}, "
        f"{workers} workers ({BACKEND_BENCH_WORKERS} requested, "
        f"{cpus} visible CPUs)"
    ]
    for machines in BACKEND_BENCH_MACHINES:
        serial_run, serial_s = _timed_fig10_run(
            books_dataset, machines, SerialExecutor()
        )
        executor = ParallelExecutor(workers, profile_wire=True)
        process_run, process_s = _timed_fig10_run(
            books_dataset, machines, executor
        )
        assert serial_run.total_time == process_run.total_time
        assert serial_run.final_recall == process_run.final_recall
        result = process_run.result
        jobs = 2 if hasattr(result, "job2") else 1
        stats = executor.stats
        forks = stats.get("pool_forks", 0)
        descriptor_bytes = stats.get("ipc_payload_bytes", 0)
        wire_bytes = stats.get("payload_wire_bytes", 0)
        raw_bytes = stats.get("ipc_payload_raw_bytes", 0)
        shm_segments = stats.get("shm_segments", 0)
        wire_ratio = raw_bytes / wire_bytes if wire_bytes else None
        assert forks <= jobs, f"{forks} pool forks for {jobs} jobs"
        if wire_bytes:
            assert wire_ratio >= 3.0, (
                f"wire format only {wire_ratio:.2f}x smaller than plain pickle"
            )
        if shm_segments and wire_bytes:
            # The result queue now carries (segment, offset, length)
            # descriptors, not payloads.  Hold the line against PR 4.
            baseline = PR4_RESULT_QUEUE_BYTES[machines]
            assert descriptor_bytes * 5 <= baseline, (
                f"result-queue bytes {descriptor_bytes} not 5x below the "
                f"PR 4 full-payload baseline {baseline} at mu={machines}"
            )
        speedup = serial_s / process_s if process_s > 0 else float("inf")
        entries.append(
            {
                "workload": "fig10-books-progressive",
                "entities": len(books_dataset),
                "machines": machines,
                "workers": workers,
                "serial_seconds": round(serial_s, 3),
                "process_seconds": round(process_s, 3),
                "speedup": round(speedup, 3),
                "parallelism_limited": parallelism_limited,
                "virtual_time": serial_run.total_time,
                "final_recall": serial_run.final_recall,
                "jobs": jobs,
                "driver": {
                    "pool_forks": forks,
                    "tasks_fanned": stats.get("tasks_fanned", 0),
                    "tasks_inline": stats.get("tasks_inline", 0),
                    "steal_tasks": stats.get("steal_tasks", 0),
                    "worker_idle_ms": stats.get("worker_idle_ms", 0),
                    "shm_segments": shm_segments,
                    "shm_input_bytes": stats.get("shm_input_bytes", 0),
                    "shm_payload_bytes": stats.get("shm_payload_bytes", 0),
                    "payload_wire_bytes": wire_bytes,
                    "ipc_payload_bytes": descriptor_bytes,
                    "ipc_payload_raw_bytes": raw_bytes,
                    "ipc_input_bytes": stats.get("ipc_input_bytes", 0),
                    "wire_ratio": round(wire_ratio, 3) if wire_ratio else None,
                },
            }
        )
        lines.append(
            f"  mu={machines:2d}: serial {serial_s:7.2f}s  "
            f"process {process_s:7.2f}s  speedup {speedup:4.2f}x  "
            f"forks {forks}/{jobs} jobs  wire "
            + (f"{wire_ratio:.1f}x" if wire_ratio else "n/a")
            + f"  queue {descriptor_bytes}B  steals {stats.get('steal_tasks', 0)}"
        )
    payload = {
        "bench": "parallel_backend",
        "cpus_visible": cpus,
        "workers_requested": BACKEND_BENCH_WORKERS,
        "workers": workers,
        "parallelism_limited": parallelism_limited,
        "note": (
            "speedup reflects the machine the bench ran on; entries marked "
            "parallelism_limited ran with the worker count clamped to fewer "
            "visible CPUs than requested, where the process backend cannot "
            "beat serial.  pool_forks, the wire ratio, and the result-queue "
            "descriptor bytes are machine-independent."
        ),
        "pr4_result_queue_bytes": PR4_RESULT_QUEUE_BYTES,
        "trajectory": entries,
    }
    BACKEND_BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    report("\n".join(lines) + f"\n  wrote {BACKEND_BENCH_PATH.name}")
    if not parallelism_limited:
        best = max(entry["speedup"] for entry in entries)
        assert best > 1.0, f"expected >1x speedup with {cpus} CPUs, got {best}x"


# ---------------------------------------------------------------------------
# Perf smoke: kernel crossover and threshold propagation (CI-asserted)
# ---------------------------------------------------------------------------


def test_myers_beats_scalar_dp_on_long_strings(report):
    """Myers' bit-parallel kernel must stay ≥10x faster than the scalar
    two-row DP on 300-character inputs (the abstract-length regime)."""
    from repro.similarity.edit_distance import _full_dp, _myers_dp

    rng = random.Random(5)
    pairs = [
        (_random_string(rng, 300), _random_string(rng, 300)) for _ in range(8)
    ]
    # Warm up, then time the best of 3 rounds each to shrug off CI jitter.
    for a, b in pairs[:2]:
        assert _myers_dp(a, b) == _full_dp(a, b)

    def _best_of(kernel, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for a, b in pairs:
                kernel(a, b)
            best = min(best, time.perf_counter() - start)
        return best

    scalar_s = _best_of(_full_dp)
    myers_s = _best_of(_myers_dp)
    ratio = scalar_s / myers_s if myers_s > 0 else float("inf")
    report(
        f"myers vs scalar DP (300 chars): scalar {scalar_s * 1e3:.1f}ms  "
        f"myers {myers_s * 1e3:.1f}ms  ratio {ratio:.1f}x"
    )
    assert ratio >= 10.0, f"Myers only {ratio:.1f}x faster than scalar DP"


def test_threshold_propagation_reduces_banded_work(books_dataset, report):
    """Propagating the matcher's running bound into the edit kernel must
    shrink DP cell visits on the books workload without flipping a single
    decision."""
    from repro.core import books_config
    from repro.similarity import dp_cell_counters, reset_dp_cell_counters
    from repro.similarity.matchers import WeightedMatcher

    config = books_config()
    matcher = config.matcher
    rng = random.Random(9)
    pairs = [tuple(rng.sample(books_dataset.entities, 2)) for _ in range(400)]
    # Mix in near-duplicates so both accept and reject paths are exercised.
    pairs += [(e, e) for e in rng.sample(books_dataset.entities, 50)]

    def _run_decisions():
        clear_similarity_cache()
        reset_dp_cell_counters()
        decisions = BatchMatcher(matcher).decisions(pairs)
        return decisions, sum(dp_cell_counters().values())

    propagated_decisions, propagated_cells = _run_decisions()
    original_floor = WeightedMatcher._rule_floor
    WeightedMatcher._rule_floor = lambda self, *args: 0.0  # disable propagation
    try:
        baseline_decisions, baseline_cells = _run_decisions()
    finally:
        WeightedMatcher._rule_floor = original_floor

    report(
        f"threshold propagation on books pairs: {propagated_cells:,} DP cells "
        f"vs {baseline_cells:,} without ({baseline_cells / max(propagated_cells, 1):.2f}x)"
    )
    assert propagated_decisions == baseline_decisions
    assert propagated_cells < baseline_cells


def test_batch_kernel_call_reduction(books_dataset, report):
    """The batch decider must make ≥4x fewer Python-level calls than
    the per-pair reference ``is_match`` on the same fixed batch.

    This is the machine-independent core of the wall-clock claim: batching
    amortizes attribute extraction, rule dispatch and memo lookups across
    the batch, so the interpreter executes far fewer function calls for
    identical decisions.  Calls are counted with ``sys.setprofile`` 'call'
    events (Python frames only — C entry points are excluded on both
    sides, so the numpy exact columns do not skew the ratio).
    """
    matcher = books_matcher()
    rng = random.Random(13)
    # A small pool with repeats: real reduce batches revisit the same
    # entities and values across the window, which is exactly where the
    # batch kernel's per-rule dedup and hoisted rows pay off.
    pool = books_dataset.entities[:12]
    pairs = [tuple(rng.sample(pool, 2)) for _ in range(240)]
    pairs += [(e, e) for e in pool]

    def _count_calls(fn):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        clear_similarity_cache()  # both sides start from a cold memo
        sys.setprofile(profiler)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
        return result, calls

    reference, reference_calls = _count_calls(
        lambda: [matcher.is_match(a, b) for a, b in pairs]
    )
    batched, batch_calls = _count_calls(
        lambda: BatchMatcher(matcher).decisions(pairs)
    )
    ratio = reference_calls / max(batch_calls, 1)
    report(
        f"batch kernel call reduction on {len(pairs)} pairs: "
        f"reference {reference_calls:,} calls vs batch {batch_calls:,} "
        f"({ratio:.1f}x fewer)"
    )
    assert batched == reference
    # The unbounded reference makes more calls than the bounded per-pair
    # matcher it replaced (10,493 vs 7,897 here), so 3x against that one
    # is ~4x against this one.
    assert ratio >= 4.0, (
        f"batch kernel only cut Python calls by {ratio:.2f}x (need >=4x)"
    )
