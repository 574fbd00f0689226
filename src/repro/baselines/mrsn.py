"""Multi-pass Sorted Neighborhood with MapReduce (related-work baseline).

The paper's related work (Section VII) cites [Kolb, Thor & Rahm '12]:
"Multi-pass sorted neighborhood blocking with MapReduce" — the standard
way to parallelize SN before progressive ER existed.  One MapReduce job
per blocking pass:

* the **map** phase keys every entity by the pass's sorting key;
* a **range partitioner** (boundaries pre-sampled from the dataset, as in
  the original's analysis phase) sends contiguous key ranges to reduce
  tasks, so the global sorted order is the concatenation of the tasks'
  local orders;
* each entity within ``window - 1`` positions of a partition boundary is
  **replicated** to the succeeding partition (the RepSN scheme), so no
  cross-boundary pair is missed;
* each reduce task slides the SN window over its sorted range, skipping
  pairs of two replicas (they belong to the preceding partition).

Passes run sequentially (job p + 1 starts when job p ends).  As the paper
notes, such algorithms "implement a fixed ER algorithm and need to run to
completion before they can produce results" — there is no prioritization
whatsoever; this baseline exists to quantify what progressiveness adds
over plain parallel SN.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..blocking.functions import BlockingScheme
from ..data.dataset import Dataset
from ..data.entity import Entity, Pair, pair_key
from ..mapreduce.engine import Cluster
from ..mapreduce.job import MapReduceJob, Mapper, Partitioner, Reducer, TaskContext
from ..mapreduce.types import Event, JobResult
from ..mechanisms.base import block_sort_key, decide_in_batches
from ..similarity.batch import BatchMatcher
from ..similarity.matchers import WeightedMatcher

#: Map key: (partition index, sort key, replica flag); the replica flag
#: sorts replicas *before* the partition's own records so they prepend.
MrsnKey = Tuple[int, Tuple[str, str], bool]


@dataclass
class MrsnConfig:
    """Configuration of the multi-pass MR-SN baseline.

    Attributes:
        scheme: blocking scheme; each family's *main* function defines one
            pass's sorting attribute (sub-functions are not used — SN has
            no notion of block hierarchies).
        matcher: the resolve/match function.
        window: SN window size ``w``.
    """

    scheme: BlockingScheme
    matcher: WeightedMatcher
    window: int = 15

    def sort_attribute(self, family: str) -> str:
        description = self.scheme.main_function(family).description
        return description.split(".", 1)[0]


class MrsnMapper(Mapper):
    """Key each entity by the pass's sorting key; replicate boundary
    entities into the succeeding partition (RepSN)."""

    def __init__(
        self,
        sort_attribute: str,
        boundaries: Sequence[Tuple[str, str]],
        replicate: Set[int],
    ) -> None:
        self._sort_attribute = sort_attribute
        self._boundaries = list(boundaries)  # partition upper bounds
        self._replicate = replicate  # entity ids to copy forward

    def map(self, record: Entity, context: TaskContext) -> None:
        sort_key = block_sort_key(record, self._sort_attribute)
        partition = bisect_right(self._boundaries, sort_key)
        context.emit((partition, sort_key, False), record)
        if record.id in self._replicate and partition + 1 <= len(self._boundaries):
            context.emit((partition + 1, sort_key, True), record)


class MrsnPartitioner(Partitioner):
    """Range partitioning: the partition index is baked into the key."""

    def partition(self, key: MrsnKey, num_reduce_tasks: int) -> int:
        return min(key[0], num_reduce_tasks - 1)


class MrsnReducer(Reducer):
    """Slide the SN window over the task's sorted range."""

    def __init__(self, config: MrsnConfig) -> None:
        self._config = config
        self._ordered: List[Tuple[Entity, bool]] = []

    def reduce(
        self, key: MrsnKey, values: Sequence[Entity], context: TaskContext
    ) -> None:
        # Groups arrive in key order: (partition, sort key, replica flag);
        # replica=False sorts after True only within equal sort keys, which
        # is irrelevant because replicas always carry *smaller* sort keys
        # than every non-replica of the partition.
        _, _, is_replica = key
        for entity in values:
            context.charge(context.cost_model.read_record)
            self._ordered.append((entity, is_replica))

    def cleanup(self, context: TaskContext) -> None:
        window = self._config.window
        ordered = self._ordered
        context.charge(context.cost_model.sort_cost(len(ordered)))
        pairs: List[Tuple[Entity, Entity]] = []
        for i in range(len(ordered)):
            entity_i, replica_i = ordered[i]
            for j in range(i + 1, min(len(ordered), i + window)):
                entity_j, replica_j = ordered[j]
                if replica_i and replica_j:
                    continue  # both belong to the preceding partition
                if entity_i.id == entity_j.id:
                    continue  # an entity next to its own replica
                pairs.append((entity_i, entity_j))
        compare_cost = context.cost_model.compare
        batcher = BatchMatcher(self._config.matcher)
        for (entity_i, entity_j), factor, is_dup in decide_in_batches(batcher, pairs):
            context.charge(compare_cost * factor)
            if is_dup:
                # Plain MR jobs commit reducer output only when the task
                # completes — no incremental α-flushing here, so the pair
                # becomes *available* at task end (see MrsnResult's
                # availability semantics).
                context.write(pair_key(entity_i.id, entity_j.id))


@dataclass
class MrsnResult:
    """Outcome of a multi-pass MR-SN run."""

    dataset: Dataset
    jobs: List[JobResult]
    duplicate_events: List[Event]

    @property
    def total_time(self) -> float:
        return self.jobs[-1].end_time if self.jobs else 0.0

    @property
    def found_pairs(self) -> Set[Pair]:
        return {event.payload for event in self.duplicate_events}


class MultiPassMRSN:
    """Driver: one sequential MapReduce job per blocking pass."""

    def __init__(self, config: MrsnConfig, cluster: Cluster) -> None:
        self.config = config
        self.cluster = cluster

    def run(self, dataset: Dataset) -> MrsnResult:
        """Run every pass; pass p + 1 starts when pass p ends."""
        jobs: List[JobResult] = []
        start_time = 0.0
        for family in self.config.scheme.family_order:
            job_result = self._run_pass(dataset, family, start_time)
            jobs.append(job_result)
            start_time = job_result.end_time
        events = _first_discoveries(jobs)
        return MrsnResult(dataset=dataset, jobs=jobs, duplicate_events=events)

    # ------------------------------------------------------------------

    def _run_pass(self, dataset: Dataset, family: str, start_time: float) -> JobResult:
        sort_attribute = self.config.sort_attribute(family)
        boundaries, replicate = self._plan_partitions(dataset, sort_attribute)
        job = MapReduceJob(
            mapper_factory=lambda: MrsnMapper(sort_attribute, boundaries, replicate),
            reducer_factory=lambda: MrsnReducer(self.config),
            partitioner=MrsnPartitioner(),
            # No α: a plain MR job writes one output file per reduce task,
            # readable only once the task finishes.
            name=f"mrsn-pass-{family}",
        )
        return self.cluster.run_job(job, dataset.entities, start_time=start_time)

    def _plan_partitions(
        self, dataset: Dataset, sort_attribute: str
    ) -> Tuple[List[Tuple[str, str]], Set[int]]:
        """The original's analysis phase: derive range boundaries that
        split the sorted order evenly over the reduce tasks, and mark the
        ``window - 1`` entities before each boundary for replication."""
        num_tasks = self.cluster.num_reduce_tasks
        ordered = sorted(
            dataset.entities, key=lambda e: (block_sort_key(e, sort_attribute), e.id)
        )
        n = len(ordered)
        boundaries: List[Tuple[str, str]] = []
        replicate: Set[int] = set()
        for task in range(1, num_tasks):
            cut = task * n // num_tasks
            if cut <= 0 or cut >= n:
                continue
            # Boundary = the first key of the next partition; the mapper's
            # bisect_right sends keys >= boundary to that partition.
            boundaries.append(block_sort_key(ordered[cut], sort_attribute))
            for position in range(max(0, cut - self.config.window + 1), cut):
                replicate.add(ordered[position].id)
        return boundaries, replicate


def _first_discoveries(jobs: Sequence[JobResult]) -> List[Event]:
    """Merge all passes' results, first *availability* per pair.

    A pair's availability time is the close time of the output file that
    contains it — i.e. its reduce task's end.  This is the semantics the
    paper ascribes to fixed parallel ER algorithms: results only exist
    once tasks run to completion.
    """
    seen: Set[Pair] = set()
    merged: List[Event] = []
    availabilities: List[Tuple[float, Pair]] = []
    for job in jobs:
        for output_file in job.output_files:
            for pair in output_file.records:
                availabilities.append((output_file.close_time, pair))
    for time, pair in sorted(availabilities):
        if pair not in seen:
            seen.add(pair)
            merged.append(Event(time=time, kind="duplicate", payload=pair))
    return merged


__all__ = ["MrsnConfig", "MultiPassMRSN", "MrsnResult"]
