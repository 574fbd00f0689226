"""The traced run: per-layer times and counts for one dataset of a workload.

Separate from the timed runs, which always run with tracing off.  Passes:

1. an untraced serial pass — the single-threaded baseline;
2. a traced serial pass — spans at every layer boundary (``spans.py``),
   giving self time per layer and the accounting check;
3. a process pass (the timed configuration) with a ``MetricsRegistry`` and
   spans around the driver-side stages only, giving phase wall times, the
   stage times and the executor's counters;
4. stream only: one serial service fed every entity in a single submit.

Checks: serial, traced and process outputs are identical; the serial
outputs match the recorded reference when there is one; the stream's
found pairs and comparison count equal the single-submit run's; and the
traced pass's self times plus the unattributed remainder add up to its
whole with no span outside its parent.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Tuple

import repro.core.driver as driver
import repro.core.estimation as estimation
import repro.evaluation.experiment as experiment
import repro.evaluation.metrics as evaluation_metrics
import repro.mapreduce.engine as engine
import repro.mapreduce.executors as executors
import repro.service.delta as delta
import repro.service.resolver as resolver
import repro.service.store as store
import repro.similarity.batch as batch
import repro.similarity.edit_distance as edit_distance
import repro.similarity.matchers as matchers
from repro.observability import MetricsRegistry

import reference
import spans
import workloads

NS = 1e-9


def job_kind(job) -> str:
    """``job1`` (statistics), ``job2`` (resolution) or ``delta``."""
    name = job.name
    if name.startswith("progressive-resolution"):
        return "job2"
    if name.startswith("delta-resolution"):
        return "delta"
    if name == "progressive-blocking-statistics":
        return "job1"
    return "other"


#: span name -> layer, for the accounting table.
LAYERS = {
    "run": "driver", "progressive": "driver",
    "job2.map_task": "driver", "job2.reduce_task": "driver",
    "statistics": "statistics",
    "job1.map_task": "statistics", "job1.reduce_task": "statistics",
    "estimation": "estimation", "schedule": "schedule", "balance": "balance",
    "resolve": "resolve", "matcher": "matcher", "edit": "edit", "curve": "curve",
    "submit": "service", "delta.map_task": "service",
    "delta.reduce_task": "service",
    "store": "service.store", "plan": "service.plan",
    "delta_reduce": "service.delta_reduce",
}


def layer_of(name: str) -> str:
    if name in LAYERS:
        return LAYERS[name]
    if name.endswith((".job", ".map_phase", ".reduce_phase")):
        return "engine"
    return "other"


class Counts:
    """Counts gathered by span observers during the traced serial pass."""

    def __init__(self) -> None:
        self.resolve_vetoed = 0
        self.batches = 0
        self.pairs = 0
        self.matches = 0
        self.memo_hits = 0
        self.memo_misses = 0

    def on_resolve(self, args, kwargs, stats) -> None:
        self.resolve_vetoed += stats.skipped + stats.filtered + stats.pruned

    def on_decisions(self, args, kwargs, decided) -> None:
        self.batches += 1
        self.pairs += len(decided)
        self.matches += sum(decided)

    def on_job(self, args, kwargs, result) -> None:
        # The similarity memo is reset at every job start, so its counters
        # are read as each job ends.
        memo = matchers.similarity_cache_counters()
        self.memo_hits += memo.get("matcher", "cache_hits")
        self.memo_misses += memo.get("matcher", "cache_misses")


def _named(suffix: str) -> Callable[..., str]:
    return lambda *args, **kwargs: f"{job_kind(_job_arg(args, kwargs))}.{suffix}"


def _job_arg(args, kwargs):
    for value in list(args[:2]) + [kwargs.get("job")]:
        if hasattr(value, "mapper_factory"):
            return value
    raise TypeError("no MapReduceJob among the wrapped call's arguments")


def coarse_targets(on_job=None) -> List[spans.Target]:
    """Driver-side stages only: cheap enough for the process pass."""
    return [
        (experiment.ExperimentRun, "run", "run", None),
        (driver.ProgressiveER, "run", "progressive", None),
        (driver, "run_statistics_job", "statistics", None),
        (driver.ProgressiveER, "_build_estimator", "estimation", None),
        (driver.ProgressiveER, "_average_cost_factor", "estimation", None),
        (estimation.EstimationModel, "estimate_tree", "estimation", None),
        (driver, "generate_schedule", "schedule", None),
        (driver, "apply_balance", "balance", None),
        (engine.Cluster, "run_job", _named("job"), on_job),
        (evaluation_metrics, "recall_curve", "curve", None),
        (resolver.ResolverService, "submit", "submit", None),
    ]


def fine_targets(counts: Counts) -> List[spans.Target]:
    """Every layer boundary, down to single edit-distance calls."""
    return coarse_targets(counts.on_job) + [
        (executors.SerialExecutor, "run_map_phase", _named("map_phase"), None),
        (executors.SerialExecutor, "run_reduce_phase", _named("reduce_phase"), None),
        (executors, "compute_map_task", _named("map_task"), None),
        (executors, "compute_reduce_task", _named("reduce_task"), None),
        (driver, "resolve_block", "resolve", counts.on_resolve),
        (batch.BatchMatcher, "decisions", "matcher", counts.on_decisions),
        (batch.BatchMatcher, "cost_factors", "matcher", None),
        (matchers, "levenshtein", "edit", None),
        (edit_distance, "levenshtein", "edit", None),
        (store.EntityStore, "annotate", "store", None),
        (store.EntityStore, "admit", "store", None),
        (resolver, "plan_delta", "plan", None),
        (delta.DeltaReducer, "reduce", "delta_reduce", None),
    ]


def _phase_wall(registry: MetricsRegistry, scope: str) -> float:
    return sum(dict(s.extra).get("wall_seconds", 0.0) for s in registry.scoped(scope))


def run(workload, seed: int, scale: str) -> Dict[str, Any]:
    entities, count = workload.size(scale)
    dataset_seed = workloads.dataset_seeds(seed, count)[0]
    dataset = workloads.make_dataset(workload, entities, dataset_seed)
    problems: List[str] = []
    failed_passes = set()

    def check(label: str, got: Dict[str, Any], want: Dict[str, Any]) -> None:
        bad = workloads.mismatches(got, want)
        if bad:
            failed_passes.add(label)
            problems.append(f"{label}: {bad} differ")

    # 1. untraced serial baseline
    serial = workloads.one_pass(workload, dataset, dataset_seed, backend="serial")
    workloads.finish(serial, dataset)
    want = reference.lookup(reference.load(), workload.name, dataset_seed) if scale == "full" else None
    check("serial", serial["outputs"], want or {})

    # 2. traced serial pass
    counts = Counts()
    recorder = spans.SpanRecorder()
    cells_before = sum(edit_distance.dp_cell_counters().values())
    with spans.installed(recorder, fine_targets(counts)):
        traced = workloads.one_pass(workload, dataset, dataset_seed, backend="serial")
    workloads.finish(traced, dataset)
    dp_cells = sum(edit_distance.dp_cell_counters().values()) - cells_before
    check("traced", traced["outputs"], serial["outputs"])
    books = spans.accounting(recorder, traced["whole_ns"], layer_of)
    if not books["ok"]:
        failed_passes.add("traced")
        problems.append(f"traced: self-time accounting failed {books}")
    by_name = recorder.by_name()

    # 3. process pass with metrics and driver-side stage spans
    registry = MetricsRegistry()
    executor = executors.ParallelExecutor(workloads.WORKERS, profile_wire=True)
    stages = spans.SpanRecorder()
    try:
        with spans.installed(stages, coarse_targets()):
            process = workloads.one_pass(workload, dataset, dataset_seed,
                               executor=executor, metrics=registry)
    finally:
        executor.close()
    workloads.finish(process, dataset)
    check("process", process["outputs"], serial["outputs"])
    if stages.nesting_violations():
        failed_passes.add("process")
        problems.append("process: a stage span ran outside its parent")
    stage = stages.by_name()

    attempted = 3
    # 4. stream partition invariance: one submit of everything
    if workload.kind == "stream":
        attempted += 1
        single = workloads.build_stream(workload, backend="serial")
        single.submit(dataset.entities)
        got = workloads.stream_outputs(single, dataset)
        stream = serial["outputs"]
        if (got["pairs"], got["comparisons"]) != (stream["pairs"], stream["comparisons"]):
            failed_passes.add("single-submit")
            problems.append("single-submit: found pairs or comparisons differ from the stream")

    layers = {name: ns * NS for name, ns in books["layers_ns"].items()}

    def incl(table, name: str) -> float:
        return table.get(name, (0, 0, 0))[1] * NS

    def own(table, name: str) -> float:
        return table.get(name, (0, 0, 0))[2] * NS

    values: Dict[str, Tuple[float, str]] = {}
    oneshot = workload.kind == "oneshot"
    result = process["result"].result if oneshot else None
    job2_reduce = [t.wall_ns * NS for t in result.job2.reduce_tasks] if oneshot else [0.0]
    values.update({
        "job1.wall_s": (incl(stage, "statistics"), "s"),
        "job1.map_wall_s": (_phase_wall(registry, "progressive-blocking-statistics/map"), "s"),
        "job1.reduce_wall_s": (_phase_wall(registry, "progressive-blocking-statistics/reduce"), "s"),
        "estimation.wall_s": (incl(stage, "estimation"), "s"),
        "schedule.wall_s": (own(stage, "schedule"), "s"),
        "schedule.blocks": (len(result.schedule.blocks) if oneshot else 0, "count"),
        "balance.wall_s": (incl(stage, "balance"), "s"),
        "balance.shards": (len(result.balance.shards) if oneshot else 0, "count"),
        "balance.max_over_mean": (result.balance.after.max_over_mean if oneshot else 0.0, "ratio"),
        "job2.map_wall_s": (_phase_wall(registry, "progressive-resolution/map"), "s"),
        "job2.map_emitted": (result.job2.counters.get("engine", "map_emitted") if oneshot else 0, "count"),
        "job2.reduce_wall_s": (_phase_wall(registry, "progressive-resolution/reduce"), "s"),
        "job2.reduce_task_max_s": (max(job2_reduce), "s"),
        "job2.reduce_task_sum_s": (sum(job2_reduce), "s"),
        "driver.self_s": (layers.get("driver", 0.0), "s"),
        "resolve.self_s": (layers.get("resolve", 0.0), "s"),
        "resolve.blocks": (by_name.get("resolve", (0, 0, 0))[0], "count"),
        "resolve.pairs_filtered": (counts.resolve_vetoed, "count"),
        "matcher.self_s": (layers.get("matcher", 0.0), "s"),
        "matcher.batches": (counts.batches, "count"),
        "matcher.pairs": (counts.pairs, "count"),
        "matcher.pairs_per_batch": (counts.pairs / counts.batches if counts.batches else 0.0, "count"),
        "matcher.match_ratio": (counts.matches / counts.pairs if counts.pairs else 0.0, "ratio"),
        "matcher.memo_hit_ratio": (
            counts.memo_hits / (counts.memo_hits + counts.memo_misses)
            if counts.memo_hits + counts.memo_misses else 0.0, "ratio"),
        "edit.self_s": (layers.get("edit", 0.0), "s"),
        "edit.calls": (by_name.get("edit", (0, 0, 0))[0], "count"),
        "edit.dp_cells": (dp_cells, "count"),
        "engine.self_s": (layers.get("engine", 0.0), "s"),
    })
    stats = executor.stats
    wire_bytes = stats.get("payload_wire_bytes", 0)
    values.update({
        "executor.pool_forks": (stats.get("pool_forks", 0), "count"),
        "executor.tasks_fanned": (stats.get("tasks_fanned", 0), "count"),
        "executor.tasks_inline": (stats.get("tasks_inline", 0), "count"),
        "executor.steal_tasks": (stats.get("steal_tasks", 0), "count"),
        "executor.worker_idle_ms": (stats.get("worker_idle_ms", 0), "ms"),
        "executor.ipc_payload_bytes": (stats.get("ipc_payload_bytes", 0), "bytes"),
        "executor.wire_ratio": (
            stats.get("ipc_payload_raw_bytes", 0) / wire_bytes if wire_bytes else 0.0, "ratio"),
        "executor.speedup": (serial["wall_s"] / process["wall_s"], "x"),
    })
    if workload.kind == "stream":
        receipts = serial["service"].receipts
        planned = sum(r.planned_pairs for r in receipts)
        compared = sum(r.comparisons for r in receipts)
        affected = sum(r.affected_blocks for r in receipts)
    else:
        planned = compared = affected = 0
    values.update({
        "service.store_s": (layers.get("service.store", 0.0), "s"),
        "service.plan_s": (layers.get("service.plan", 0.0), "s"),
        "service.delta_reduce_self_s": (layers.get("service.delta_reduce", 0.0), "s"),
        "service.affected_blocks": (affected, "count"),
        "service.comparisons": (compared, "count"),
        "service.planned_pairs": (planned, "count"),
        "service.useful_ratio": (compared / planned if planned else 0.0, "ratio"),
        "curve.wall_s": (incl(stage, "curve"), "s"),
        "trace.overhead_ratio": (traced["whole_ns"] / serial["whole_ns"], "ratio"),
    })

    print(json.dumps({"details": {
        "workload": workload.name, "seed": seed, "scale": scale,
        "dataset_seed": dataset_seed, "inputs": workloads.input_digest([dataset]),
        "reference": "recorded" if want else None,
        "serial_wall_s": serial["wall_s"], "traced_wall_s": traced["wall_s"],
        "process_wall_s": process["wall_s"],
        "accounting": {
            "ok": books["ok"], "whole_s": books["whole_ns"] * NS,
            "unattributed_s": books["unattributed_ns"] * NS,
            "self_s": {name: ns * NS for name, ns in books["layers_ns"].items()},
            "spans": books["spans"],
            "nesting_violations": books["nesting_violations"],
        },
        "problems": problems,
    }}))
    return {
        "correct": not failed_passes,
        "attempted": attempted,
        "failed": len(failed_passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
