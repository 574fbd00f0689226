"""The delta MapReduce job: resolve only what a new batch can change.

One submit runs one job.  Map routes each member of an *affected* block
(a level-1 block containing at least one new entity) to that block's
reduce target(s); reduce enumerates candidate pairs, decides them with the
batched similarity kernel, and writes ``(pair, verdict)`` records.  The
job runs on the ordinary cluster engine, so executor pools, fault plans,
balance-style placement, and tracer spans all apply unchanged.

Batch-partition invariance — the property the differential oracle pins —
comes from three rules, each a pure function of the two entities involved:

* **Candidate predicate.**  A pair is a candidate iff its level-1 blocking
  keys agree in at least ``min(min_family_matches, num_families)``
  families.  Block sizes, sort orders, windows and budgets never enter the
  predicate, so slicing the corpus into batches cannot change it.
* **Responsibility.**  A candidate is decided exactly once: in the block
  of the *first* family (dominance order) where the keys agree.  That
  block contains both entities, and it is affected in the batch where the
  younger of the two arrives.
* **Freshness.**  Each submit decides only pairs with at least one member
  from the current batch; old-old pairs were decided when their younger
  member arrived.  The union over any batch sequence is therefore the
  one-shot candidate set, decided by the same deterministic kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.entity import Entity, pair_key
from ..mapreduce.job import MapReduceJob, Mapper, Partitioner, Reducer, TaskContext, stable_hash
from ..mechanisms.base import decide_in_batches
from ..similarity.batch import BatchMatcher
from ..similarity.matchers import WeightedMatcher
from .store import ROUTE_SEP, BlockRoute, route_label

#: Routing-label separator between the base route and a shard index.
SHARD_SEP = "\x1e"

#: A delta input record: the entity, its per-family level-1 keys, and
#: whether it arrived in the current batch.
DeltaRecord = Tuple[Entity, Dict[str, Optional[str]], bool]


def matching_families(
    keys_a: Dict[str, Optional[str]],
    keys_b: Dict[str, Optional[str]],
    family_order: Sequence[str],
) -> List[str]:
    """Families (dominance order) where both entities share a non-None key."""
    return [
        family
        for family in family_order
        if keys_a.get(family) is not None and keys_a.get(family) == keys_b.get(family)
    ]


def block_weight(members: Sequence[Tuple[int, bool]]) -> List[int]:
    """Per-anchor candidate-pair upper bounds for one affected block.

    ``members`` is (id, is_new) sorted by id.  Entry ``j`` counts the pairs
    ``(i, j), i < j`` that pass the freshness filter — exact for planning
    because responsibility and the key predicate only thin it further.
    """
    weights: List[int] = []
    new_before = 0
    for j, (_, is_new) in enumerate(members):
        weights.append(j if is_new else new_before)
        if is_new:
            new_before += 1
    return weights


@dataclass
class DeltaPlan:
    """Placement of one batch's affected blocks onto reduce tasks.

    Attributes:
        routes: base route label -> routing labels (the block itself, or
            its shards when an oversized block was split).
        assignment: routing label -> reduce task index.
        shards: routing label -> half-open anchor range ``[lo, hi)`` over
            the block's id-sorted members; absent = the whole block.
        ranks: routing label -> processing priority (0 = first).  Reduce
            tasks work heaviest blocks first, the progressive ordering.
        planned: routing label -> planned candidate-pair load.
    """

    routes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    assignment: Dict[str, int] = field(default_factory=dict)
    shards: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    ranks: Dict[str, int] = field(default_factory=dict)
    planned: Dict[str, int] = field(default_factory=dict)

    @property
    def total_planned(self) -> int:
        return sum(self.planned.values())

    @property
    def num_blocks(self) -> int:
        return len(self.routes)


def plan_delta(
    affected: Dict[BlockRoute, List[Tuple[int, bool]]],
    num_reduce_tasks: int,
    balance: str,
) -> DeltaPlan:
    """Place affected blocks onto reduce tasks under a balance strategy.

    ``slack`` mirrors the paper baseline: hash placement, whole blocks.
    Every other strategy (``blocksplit``, ``pairrange``,
    ``pairrange-tree``) reuses the batch balancer's ideas at the delta
    granularity: blocks whose planned load exceeds the per-task fair share
    are sharded into contiguous anchor ranges, then all units are placed
    longest-processing-time-first onto the least-loaded task.  (The delta
    workload has no per-block pair-stream estimates, so the batch
    strategies' distinctions — global cuts versus oversize thresholds —
    collapse to this single sharding scheme here.)  Placement never
    changes which pairs are compared — only where.
    """
    plan = DeltaPlan()
    loads: Dict[str, int] = {}
    for route, members in affected.items():
        label = route_label(route)
        loads[label] = sum(block_weight(members))

    if balance == "slack":
        for route in affected:
            label = route_label(route)
            plan.routes[label] = (label,)
            plan.assignment[label] = stable_hash(label) % num_reduce_tasks
            plan.planned[label] = loads[label]
    else:
        total = sum(loads.values())
        fair_share = max(1, math.ceil(total / max(1, num_reduce_tasks)))
        units: List[Tuple[str, int]] = []
        for route, members in affected.items():
            label = route_label(route)
            load = loads[label]
            parts = min(len(members) - 1, math.ceil(load / fair_share)) if load else 1
            if parts <= 1:
                plan.routes[label] = (label,)
                plan.planned[label] = load
                units.append((label, load))
                continue
            weights = block_weight(members)
            target = load / parts
            shard_labels: List[str] = []
            lo, acc, index = 1, 0, 0
            for j in range(1, len(members)):
                acc += weights[j]
                last_anchor = j == len(members) - 1
                if (acc >= target and index < parts - 1) or last_anchor:
                    shard = f"{label}{SHARD_SEP}{index}"
                    plan.shards[shard] = (lo, j + 1)
                    plan.planned[shard] = acc
                    units.append((shard, acc))
                    shard_labels.append(shard)
                    lo, acc, index = j + 1, 0, index + 1
            plan.routes[label] = tuple(shard_labels)
        # Longest-processing-time placement onto the least-loaded task.
        task_load = [0] * max(1, num_reduce_tasks)
        for label, load in sorted(units, key=lambda unit: (-unit[1], unit[0])):
            task = min(range(len(task_load)), key=lambda t: (task_load[t], t))
            task_load[task] += load
            plan.assignment[label] = task

    ordered = sorted(plan.planned, key=lambda label: (-plan.planned[label], label))
    plan.ranks = {label: rank for rank, label in enumerate(ordered)}
    return plan


class DeltaMapper(Mapper):
    """Route each record to the reduce target(s) of its affected blocks."""

    def __init__(self, routes: Dict[str, Tuple[str, ...]],
                 family_order: Sequence[str]) -> None:
        self._routes = routes
        self._family_order = tuple(family_order)

    def map(self, record: DeltaRecord, context: TaskContext) -> None:
        _, keys, _ = record
        context.charge(context.cost_model.read_record)
        for family in self._family_order:
            key = keys.get(family)
            if key is None:
                continue
            for target in self._routes.get(f"{family}{ROUTE_SEP}{key}", ()):
                context.emit(target, record)


class DeltaPartitioner(Partitioner):
    """Route keys to the tasks the plan assigned (strategy-aware)."""

    def __init__(self, assignment: Dict[str, int]) -> None:
        self._assignment = assignment

    def partition(self, key: str, num_reduce_tasks: int) -> int:
        try:
            return self._assignment[key] % num_reduce_tasks
        except KeyError:
            raise ValueError(f"key {key!r} is not in the delta plan") from None


class DeltaReducer(Reducer):
    """Decide one affected block (or shard): enumerate fresh candidates,
    batch them through the similarity kernel, report duplicates."""

    def __init__(
        self,
        matcher: WeightedMatcher,
        family_order: Sequence[str],
        shards: Dict[str, Tuple[int, int]],
        *,
        min_family_matches: int = 2,
        cross_source_only: bool = False,
    ) -> None:
        self._matcher = matcher
        self._family_order = tuple(family_order)
        self._shards = shards
        self._min_matches = min(max(1, min_family_matches), len(self._family_order))
        self._cross_source_only = cross_source_only
        self._batcher: Optional[BatchMatcher] = None

    def _candidates(self, key: str, members: Sequence[DeltaRecord]) -> List[Tuple[Entity, Entity]]:
        family = key.split(ROUTE_SEP, 1)[0]
        lo, hi = self._shards.get(key, (0, len(members)))
        pairs: List[Tuple[Entity, Entity]] = []
        for j in range(max(lo, 1), min(hi, len(members))):
            entity_j, keys_j, new_j = members[j]
            for i in range(j):
                entity_i, keys_i, new_i = members[i]
                if not (new_i or new_j):
                    continue
                if self._cross_source_only and entity_i.source == entity_j.source:
                    # Clean-clean linkage: same-source pairs are never
                    # candidates.  Pure in the pair, so batch-partition
                    # invariance is untouched.
                    continue
                matched = matching_families(keys_i, keys_j, self._family_order)
                if len(matched) < self._min_matches or matched[0] != family:
                    continue
                pairs.append((entity_i, entity_j))
        return pairs

    def reduce(self, key: str, values: Sequence[DeltaRecord], context: TaskContext) -> None:
        context.charge(context.cost_model.read_record * len(values))
        members = sorted(values, key=lambda record: record[0].id)
        candidates = self._candidates(key, members)
        trace = context.tracing
        started = context.clock.now if trace else 0.0
        found = 0
        if candidates:
            if self._batcher is None:
                self._batcher = BatchMatcher(self._matcher)
            compare_cost = context.cost_model.compare
            decided = decide_in_batches(self._batcher, candidates)
            for (entity_a, entity_b), factor, is_dup in decided:
                context.charge(compare_cost * factor)
                context.counters.increment("service", "comparisons")
                pair = pair_key(entity_a.id, entity_b.id)
                if is_dup:
                    found += 1
                    context.counters.increment("service", "duplicates")
                    context.record_event("duplicate", pair)
                context.write((pair, is_dup))
        context.counters.increment("service", "blocks_resolved")
        if trace:
            context.record_span(
                f"delta:{key.replace(ROUTE_SEP, '/')}",
                "block",
                started,
                context.clock.now,
                members=len(members),
                candidates=len(candidates),
                duplicates=found,
            )


def build_delta_job(
    plan: DeltaPlan,
    matcher: WeightedMatcher,
    family_order: Sequence[str],
    *,
    min_family_matches: int = 2,
    cross_source_only: bool = False,
    alpha: Optional[float] = None,
    name: str = "delta-resolution",
) -> MapReduceJob:
    """The MapReduce job for one batch, from its placement plan."""
    routes = dict(plan.routes)
    shards = dict(plan.shards)
    ranks = dict(plan.ranks)
    order = tuple(family_order)
    fallback = len(ranks)

    return MapReduceJob(
        mapper_factory=lambda: DeltaMapper(routes, order),
        reducer_factory=lambda: DeltaReducer(
            matcher,
            order,
            shards,
            min_family_matches=min_family_matches,
            cross_source_only=cross_source_only,
        ),
        partitioner=DeltaPartitioner(dict(plan.assignment)),
        key_sort=lambda label: (ranks.get(label, fallback), label),
        alpha=alpha,
        name=name,
    )


__all__ = [
    "SHARD_SEP",
    "DeltaRecord",
    "DeltaPlan",
    "matching_families",
    "block_weight",
    "plan_delta",
    "DeltaMapper",
    "DeltaPartitioner",
    "DeltaReducer",
    "build_delta_job",
]
