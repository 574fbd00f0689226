"""The benchmark's workloads: inputs from a seed, one operation, its outputs.

Three workloads stress different layers of the same pipeline:

* ``books-oneshot`` — one :class:`~repro.ExperimentRun` over a books
  dataset with the paper's ``slack`` placement: short strings, so Job 2
  map, the pair stream and the driver show beside edit distance;
* ``skewed-pairrange`` — one run over the skewed dataset with global
  PairRange balance: one hub block, nearly all time in ``levenshtein``
  spread over balance shards, so the edit kernel, placement and
  multi-worker parallelism show;
* ``books-stream`` — the books entities submitted to one
  :class:`~repro.ResolverService` in 30 equal batches: many small delta
  jobs, so per-job executor overhead and delta candidate planning show.

Each run resolves several datasets, generated from sub-seeds of the run's
seed, so that one unusual dataset moves a run's figures less.  The program
only ever sees the generated entities.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import ExperimentRun, ResolverService, RunSpec
from repro.core import books_config, skewed_config
from repro.data.books import make_books
from repro.data.skewed import make_skewed
from repro.evaluation import metrics as evaluation_metrics
from repro.mapreduce.types import Event

#: Worker processes of the process backend in every timed run.
WORKERS = 2
#: Simulated cluster size (2 map + 2 reduce slots per machine).
MACHINES = 10
#: Submits per stream pass.
STREAM_BATCHES = 30
#: Hub share of the skewed dataset.
HUB_FRACTION = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "oneshot" or "stream"
    family: str  # "books" or "skewed"
    balance: str
    #: scale name -> (entities per dataset, datasets per run)
    scales: Dict[str, Tuple[int, int]]

    def size(self, scale: str) -> Tuple[int, int]:
        return self.scales[scale]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("books-oneshot", "oneshot", "books", "slack",
                 {"full": (1500, 10), "tiny": (240, 2)}),
        Workload("skewed-pairrange", "oneshot", "skewed", "pairrange",
                 {"full": (400, 8), "tiny": (120, 2)}),
        Workload("books-stream", "stream", "books", "slack",
                 {"full": (1200, 6), "tiny": (240, 2)}),
    )
}


def dataset_seeds(seed: int, count: int) -> List[int]:
    """Generator seeds of a run's datasets (a run's seed names a block)."""
    return [1000 * seed + index for index in range(count)]


def make_dataset(workload: Workload, entities: int, seed: int):
    if workload.family == "skewed":
        return make_skewed(entities, seed=seed, hub_fraction=HUB_FRACTION)
    return make_books(entities, seed=seed)


def config_of(workload: Workload):
    return skewed_config() if workload.family == "skewed" else books_config()


def input_digest(datasets: Sequence[Any]) -> str:
    """Short hash of every generated entity, to show what a seed produced."""
    digest = hashlib.sha256()
    for dataset in datasets:
        for entity in dataset.entities:
            digest.update(repr((entity.id, sorted(entity.attrs.items()))).encode())
    return digest.hexdigest()[:16]


def pairs_digest(pairs) -> str:
    return hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()[:16]


# -- building the program's objects -----------------------------------------


def build_oneshot(
    workload: Workload, dataset, seed: int, *, backend: str = "process",
    executor: Any = None, metrics: Any = None,
) -> ExperimentRun:
    spec = RunSpec(
        dataset,
        config_of(workload),
        machines=MACHINES,
        balance=workload.balance,
        seed=seed,
        backend=None if executor is not None else backend,
        workers=WORKERS if backend == "process" and executor is None else None,
        executor=executor,
        metrics=metrics,
    )
    return ExperimentRun(spec)


def build_stream(
    workload: Workload, *, backend: str = "process", executor: Any = None,
    metrics: Any = None,
) -> ResolverService:
    return ResolverService(
        config_of(workload),
        machines=MACHINES,
        balance=workload.balance,
        backend=None if executor is not None else backend,
        workers=WORKERS if backend == "process" and executor is None else None,
        executor=executor,
        metrics=metrics,
    )


def batches_of(dataset, count: int = STREAM_BATCHES) -> List[list]:
    """The dataset's entities in ``count`` near-equal consecutive batches."""
    entities = dataset.entities
    bounds = [round(i * len(entities) / count) for i in range(count + 1)]
    return [entities[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


# -- outputs ----------------------------------------------------------------


def outputs(dataset, found, events: Sequence[Event], end_time: float,
            comparisons: Optional[int] = None) -> Dict[str, Any]:
    """The seed-determined outputs of one operation, plus their cross-checks.

    Recall and precision are recounted here from the found pairs and the
    ground truth; ``consistent`` is False when the program's own curve
    disagrees with that count.
    """
    truth = dataset.true_pairs
    found = set(found)
    hits = len(found & truth)
    curve = evaluation_metrics.recall_curve(events, dataset, end_time=end_time)
    precision = evaluation_metrics.pair_precision(found, dataset)
    result = {
        "final_recall": curve.final_recall,
        "precision": precision,
        "recall_auc": curve.area_under(),
        "virtual_time": end_time,
        "pairs": pairs_digest(found),
        "consistent": curve.final_recall == (hits / len(truth) if truth else 0.0)
        and precision == (hits / len(found) if found else 1.0),
    }
    if comparisons is not None:
        result["comparisons"] = comparisons
    return result


def oneshot_outputs(run_result, dataset) -> Dict[str, Any]:
    result = run_result.result
    return outputs(
        dataset, run_result.found_pairs, result.duplicate_events,
        run_result.total_time,
    )


def stream_outputs(service: ResolverService, dataset) -> Dict[str, Any]:
    events = [
        Event(time=event.time, kind="duplicate", payload=event.pair)
        for event in service.pairs()
    ]
    return outputs(
        dataset, service.found_pairs, events, service.clock,
        comparisons=service.total_comparisons,
    )


#: Output fields that must match a reference exactly.
CHECKED = ("final_recall", "precision", "recall_auc", "virtual_time", "pairs")


def mismatches(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Names of checked outputs that differ (plus ``consistent`` if false)."""
    bad = [name for name in CHECKED if name in want and got.get(name) != want[name]]
    if "comparisons" in want and got.get("comparisons") != want["comparisons"]:
        bad.append("comparisons")
    if not got.get("consistent", False):
        bad.append("consistent")
    return bad


# -- one operation ------------------------------------------------------------


def one_pass(workload: Workload, dataset, seed: int, **build) -> Dict[str, Any]:
    """Build and run once, untimed by the caller.  ``wall_s`` is the run (or
    the submits) alone; ``whole_ns`` also covers building and, for the
    stream, the recall curve, which the program does not build itself."""
    whole_start = time.perf_counter_ns()
    if workload.kind == "stream":
        service = build_stream(workload, **build)
        start = time.perf_counter()
        for chunk in batches_of(dataset):
            service.submit(chunk)
        wall = time.perf_counter() - start
        got = stream_outputs(service, dataset)
        done = {"service": service}
    else:
        run = build_oneshot(workload, dataset, seed, **build)
        start = time.perf_counter()
        result = run.run()
        wall = time.perf_counter() - start
        done = {"result": result}
        got = None  # computed by finish(), outside any spans
    done.update(outputs=got, wall_s=wall, whole_ns=time.perf_counter_ns() - whole_start)
    return done


def finish(done: Dict[str, Any], dataset) -> Dict[str, Any]:
    """Fill in a one-shot pass's outputs; a traced pass calls this once its
    spans are uninstalled, so the benchmark's own curve is not recorded."""
    if done["outputs"] is None:
        done["outputs"] = oneshot_outputs(done["result"], dataset)
    return done
