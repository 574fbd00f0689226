"""The two-job progressive ER pipeline (paper Section III).

Job 1 (:mod:`repro.core.statistics`) annotates the dataset and gathers the
block statistics.  This module implements Job 2 and the end-to-end driver:

* the **map side** regenerates the progressive schedule in its setup (the
  cost is charged per map task, exactly the overhead visible in Figures 10
  and 11), then routes each annotated entity once per tree containing it
  (footnote 5's one-emission-per-tree implementation), attaching the
  dominance list of Section V;
* the **partition function** routes trees to their scheduled reduce tasks;
* the **reduce side** buffers its trees, re-derives block memberships
  locally, and resolves its blocks in the block-schedule order with the
  configured mechanism M — aggressively (distinct budget ``Th``) for
  non-roots, fully for roots — skipping pairs another block is responsible
  for (``SHOULD-RESOLVE``) and pairs already resolved inside the same tree,
  while flushing discovered duplicates incrementally every α cost units.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..blocking.functions import BlockingScheme
from ..data.dataset import Dataset
from ..data.entity import Entity, Pair, cross_pairs_count, pair_key, pairs_count
from ..mapreduce.engine import Cluster
from ..mapreduce.job import MapReduceJob, Mapper, Partitioner, Reducer, TaskContext
from ..mapreduce.types import Event, JobResult
from ..mechanisms.base import DistinctBudget, block_sort_key, resolve_block
from .config import ApproachConfig
from .metablock import METABLOCK_MODES, MetablockPlan, WnpPruner, build_metablock_plan
from .estimation import (
    DuplicateEstimator,
    EstimationModel,
    LearnedEstimator,
    OracleEstimator,
    UniformEstimator,
)
from .balance import BalancePlan, apply_balance
from .redundancy import build_dominance_list, should_resolve
from .schedule import ProgressiveSchedule, generate_schedule
from .statistics import AnnotatedEntity, DatasetStatistics, run_statistics_job

#: Value type shipped to the reduce side: (entity, dominance list).
RoutedEntity = Tuple[Entity, Tuple[int, ...]]


class ResolutionMapper(Mapper):
    """Job-2 mapper: route each entity once per tree containing it.

    When a balance pass sharded a tree's root block, every *remote* shard
    (index >= 1) gets its own copy of the tree's entities under the shard
    routing key — the BlockSplit replication cost, charged like any other
    emission.  Shard 0 rides the tree's normal emission.
    """

    def __init__(self, schedule: ProgressiveSchedule, scheme: BlockingScheme) -> None:
        self._schedule = schedule
        self._scheme = scheme
        routes: Dict[str, List[str]] = {}
        for shard in schedule.shards.values():
            if shard.index > 0:
                routes.setdefault(shard.tree_uid, []).append(shard.key)
        self._shard_routes: Dict[str, Tuple[str, ...]] = {
            uid: tuple(sorted(keys)) for uid, keys in routes.items()
        }

    def setup(self, context: TaskContext) -> None:
        """Charge the progressive-schedule generation performed in the map
        setup (Section III-B) — the constant overhead of our approach."""
        start = context.clock.now
        context.charge(self._schedule.generation_cost)
        context.record_span(
            "schedule-generation", "setup", start, context.clock.now,
            blocks=len(self._schedule.blocks),
        )

    def map(self, record: AnnotatedEntity, context: TaskContext) -> None:
        entity, main_keys = record
        schedule = self._schedule
        scheme = self._scheme
        n = scheme.num_families

        # Per family: the dominance value of the entity's *main* tree.
        family_doms: List[Optional[int]] = []
        for family in scheme.family_order:
            key = main_keys.get(family)
            uid = schedule.main_tree.get((family, key)) if key is not None else None
            family_doms.append(schedule.dominance[uid] if uid is not None else None)

        for index, family in enumerate(scheme.family_order, start=1):
            key = main_keys.get(family)
            if key is None:
                continue
            chain = self._tree_chain(entity, family, key)
            for position, tree_uid in enumerate(chain):
                next_uid = chain[position + 1] if position + 1 < len(chain) else None
                dom_list = build_dominance_list(
                    entity_id=entity.id,
                    own_index=index,
                    num_families=n,
                    family_trees=family_doms,
                    emitted_tree=schedule.dominance[tree_uid],
                    split_descendant=(
                        schedule.dominance[next_uid] if next_uid is not None else None
                    ),
                )
                value = (entity, tuple(dom_list))
                context.emit(tree_uid, value)
                for route in self._shard_routes.get(tree_uid, ()):
                    context.emit(route, value)

    def _tree_chain(self, entity: Entity, family: str, main_key: str) -> List[str]:
        """Trees of ``family`` containing the entity, outermost first:
        the main tree, then every split-off sub-tree, by level."""
        chain: List[str] = []
        main_uid = self._schedule.main_tree.get((family, main_key))
        if main_uid is not None:
            chain.append(main_uid)
        functions = self._scheme.families[family]
        for level, key, uid in self._schedule.split_roots.get(family, ()):  # by level
            if functions[level - 1].key_of(entity) == key:
                chain.append(uid)
        return chain


class SchedulePartitioner(Partitioner):
    """Route each tree to the reduce task the tree schedule assigned."""

    def __init__(self, schedule: ProgressiveSchedule) -> None:
        self._schedule = schedule

    def partition(self, key: str, num_reduce_tasks: int) -> int:
        try:
            return self._schedule.assignment[key]
        except KeyError:
            raise ValueError(
                f"tree {key!r} has no reduce-task assignment in the "
                "schedule; Job-2 mappers must only emit scheduled tree uids"
            ) from None


class ResolutionReducer(Reducer):
    """Job-2 reducer: buffer the task's trees, then resolve its blocks in
    block-schedule order (the shuffle delivers all groups before reduce
    work can begin in Hadoop, so buffering adds no delay)."""

    def __init__(
        self,
        schedule: ProgressiveSchedule,
        config: ApproachConfig,
        pruner: Optional[WnpPruner] = None,
    ) -> None:
        self._schedule = schedule
        self._config = config
        self._pruner = pruner
        self._buffered: Dict[str, List[RoutedEntity]] = {}

    def reduce(
        self, key: str, values: Sequence[RoutedEntity], context: TaskContext
    ) -> None:
        context.charge(context.cost_model.read_record * len(values), "read")
        self._buffered[key] = list(values)

    def cleanup(self, context: TaskContext) -> None:
        members = self._derive_memberships(context)
        order = self._schedule.block_order[context.task_id]
        resolved_in_tree: Dict[str, Set[Pair]] = {}
        for entry in order:
            shard = self._schedule.shards.get(entry)
            if shard is not None:
                # Shard 0 reuses the tree's derived root membership (home
                # task); remote shards got their own routed copies.
                routed = (
                    members.get(shard.block_uid)
                    if shard.index == 0
                    else self._buffered.get(entry)
                )
                if routed:
                    resolve_scheduled_block(
                        self._schedule,
                        self._config,
                        shard.block_uid,
                        routed,
                        resolved_in_tree,
                        context,
                        pair_range=(shard.start, shard.stop),
                        pruner=self._pruner,
                    )
                continue
            if entry not in members:
                continue  # tree produced no routed entities (fully pruned)
            self._resolve_one_block(entry, members[entry], resolved_in_tree, context)

    # ------------------------------------------------------------------

    def _derive_memberships(
        self, context: TaskContext
    ) -> Dict[str, List[RoutedEntity]]:
        """Re-derive each scheduled block's members from the buffered trees
        (footnote 5: sub-block membership is recomputed reduce-side)."""
        members: Dict[str, List[RoutedEntity]] = {}
        for tree_uid, routed in self._buffered.items():
            if tree_uid in self._schedule.shards:
                continue  # remote shard group: consumed whole in cleanup
            root = self._schedule.trees[tree_uid]
            functions = {
                f.level: f for f in self._config.scheme.families[root.family]
            }
            members[root.uid] = routed
            stack = [root]
            while stack:
                block = stack.pop()
                parent_members = members[block.uid]
                for child in block.children:
                    function = functions[child.level]
                    context.charge(
                        context.cost_model.stat_record * len(parent_members)
                    )
                    members[child.uid] = [
                        rv
                        for rv in parent_members
                        if function.key_of(rv[0]) == child.key
                    ]
                    stack.append(child)
        return members

    def _resolve_one_block(
        self,
        block_uid: str,
        routed: List[RoutedEntity],
        resolved_in_tree: Dict[str, Set[Pair]],
        context: TaskContext,
    ) -> None:
        """Resolve one block with mechanism M under the schedule's policy."""
        resolve_scheduled_block(
            self._schedule,
            self._config,
            block_uid,
            routed,
            resolved_in_tree,
            context,
            pruner=self._pruner,
        )


def _cross_source_only(e1: Entity, e2: Entity) -> bool:
    """Clean-clean linkage candidate predicate: both sources are internally
    duplicate-free, so only cross-source pairs can match."""
    return e1.source != e2.source


def resolve_scheduled_block(
    schedule: ProgressiveSchedule,
    config: ApproachConfig,
    block_uid: str,
    routed: List[RoutedEntity],
    resolved_in_tree: Dict[str, Set[Pair]],
    context: TaskContext,
    *,
    pair_range: Optional[Tuple[int, int]] = None,
    pruner: Optional[WnpPruner] = None,
) -> None:
    """Resolve one scheduled block (shared by both routing modes):
    mechanism M, window/Th from the schedule, SHOULD-RESOLVE veto, and
    per-tree skip of pairs already resolved in descendants.

    In linkage mode same-source pairs are rejected by the scenario
    ``pair_filter`` at zero cost; ``pruner`` (weighted node pruning)
    likewise vetoes low-weight pairs for free, with the pruned positions
    still consuming the distinct-pair budget (see
    :func:`~repro.mechanisms.base.resolve_block`).

    ``pair_range`` restricts the resolution to a slice of the raw pair
    stream — a balance shard of an oversized root.  Only roots are ever
    sharded, and roots run to exhaustion (no stream-order-dependent stop
    condition), so shard output is independent of placement.

    Comparisons run through :func:`resolve_block`'s batched kernel path:
    pairs are decided dozens at a time by
    :class:`~repro.similarity.batch.BatchMatcher` and the outcomes replayed
    in stream order, so the ``ok_to_resolve`` veto / ``tree_resolved``
    bookkeeping here observes the events in stream order (both are keyed
    by the entity-id pair, which the driver's same-pair flush guard relies
    on).  Decisions, charges, events and stop points are bit-identical to
    per-pair ``matcher.is_match`` resolution.
    """
    if len(routed) < 2:
        return
    block = schedule.blocks[block_uid]
    estimate = schedule.estimates[block_uid]
    tree_uid = schedule.tree_of_block[block_uid]
    tree_resolved = resolved_in_tree.setdefault(tree_uid, set())

    entities = [entity for entity, _ in routed]
    dom_lists = {entity.id: dom_list for entity, dom_list in routed}
    index = config.scheme.index_of(block.family)
    n = config.scheme.num_families
    sort_attribute = config.sort_attribute(block.family)

    def ok_to_resolve(e1: Entity, e2: Entity) -> bool:
        if pair_key(e1.id, e2.id) in tree_resolved:
            return False
        if not config.redundancy_free:
            return True
        return should_resolve(dom_lists[e1.id], dom_lists[e2.id], index, n)

    def on_resolved(e1: Entity, e2: Entity, is_dup: bool) -> None:
        tree_resolved.add(pair_key(e1.id, e2.id))

    found = 0

    def on_duplicate(e1: Entity, e2: Entity) -> None:
        nonlocal found
        found += 1
        context.counters.increment("driver", "duplicates")
        pair = pair_key(e1.id, e2.id)
        context.record_event("duplicate", pair)
        context.write(pair)

    trace = context.tracing
    span_start = context.clock.now if trace else 0.0
    stop = None if estimate.full else DistinctBudget(estimate.th)
    pair_filter = _cross_source_only if config.mode == "linkage" else None
    stats = resolve_block(
        entities,
        config.mechanism,
        window=estimate.window,
        sort_key=lambda e: block_sort_key(e, sort_attribute),
        matcher=config.matcher,
        cost_model=context.cost_model,
        charge=context.charge,
        on_duplicate=on_duplicate,
        should_resolve=ok_to_resolve,
        pair_filter=pair_filter,
        prune=pruner.keep if pruner is not None else None,
        stop=stop,
        on_resolved=on_resolved,
        pair_range=pair_range,
        charge_compare=lambda units: context.charge(units, "compare"),
    )
    if stats.filtered:
        context.counters.increment("resolve", "pairs_filtered", stats.filtered)
    if stats.pruned:
        context.counters.increment("resolve", "pairs_pruned", stats.pruned)
    if pair_range is None:
        context.counters.increment("driver", "blocks_resolved")
        span_name = f"resolve:{block_uid}"
    else:
        context.counters.increment("driver", "shards_resolved")
        span_name = f"resolve:{block_uid}@{pair_range[0]}-{pair_range[1]}"
    if trace:
        context.record_span(
            span_name, "block", span_start, context.clock.now,
            block=block_uid, entities=len(entities), duplicates=found,
        )


class BlockRoutingMapper(ResolutionMapper):
    """The naive Job-2 mapper (Section III-B before footnote 5): one
    key-value pair per *block* containing the entity, keyed by the block's
    sequence value ``SQ``."""

    def map(self, record: AnnotatedEntity, context: TaskContext) -> None:
        entity, main_keys = record
        schedule = self._schedule
        scheme = self._scheme
        n = scheme.num_families

        family_doms: List[Optional[int]] = []
        for family in scheme.family_order:
            key = main_keys.get(family)
            uid = schedule.main_tree.get((family, key)) if key is not None else None
            family_doms.append(schedule.dominance[uid] if uid is not None else None)

        for index, family in enumerate(scheme.family_order, start=1):
            key = main_keys.get(family)
            if key is None:
                continue
            chain = self._tree_chain(entity, family, key)
            functions = {f.level: f for f in scheme.families[family]}
            for position, tree_uid in enumerate(chain):
                next_uid = chain[position + 1] if position + 1 < len(chain) else None
                dom_list = tuple(
                    build_dominance_list(
                        entity_id=entity.id,
                        own_index=index,
                        num_families=n,
                        family_trees=family_doms,
                        emitted_tree=schedule.dominance[tree_uid],
                        split_descendant=(
                            schedule.dominance[next_uid] if next_uid is not None else None
                        ),
                    )
                )
                # Walk the scheduled tree top-down; emit at every block
                # whose key matches the entity's key at that level.
                node = schedule.trees[tree_uid]
                while node is not None:
                    context.emit(schedule.sequence[node.uid], (entity, dom_list))
                    node = next(
                        (
                            child
                            for child in node.children
                            if functions[child.level].key_of(entity) == child.key
                        ),
                        None,
                    )


class SequencePartitioner(Partitioner):
    """Route an ``SQ`` key to its reduce task (``SQ // stride``)."""

    def __init__(self, schedule: ProgressiveSchedule) -> None:
        self._stride = schedule.sequence_stride

    def partition(self, key: int, num_reduce_tasks: int) -> int:
        return key // self._stride


class BlockRoutingReducer(Reducer):
    """The naive Job-2 reducer: called once per block, in sequence-value
    order (the engine sorts groups by key), resolving immediately."""

    def __init__(
        self,
        schedule: ProgressiveSchedule,
        config: ApproachConfig,
        pruner: Optional[WnpPruner] = None,
    ) -> None:
        self._schedule = schedule
        self._config = config
        self._pruner = pruner
        self._uid_of_sequence = {sq: uid for uid, sq in schedule.sequence.items()}
        self._resolved_in_tree: Dict[str, Set[Pair]] = {}

    def reduce(
        self, key: int, values: Sequence[RoutedEntity], context: TaskContext
    ) -> None:
        context.charge(context.cost_model.read_record * len(values), "read")
        block_uid = self._uid_of_sequence[key]
        resolve_scheduled_block(
            self._schedule,
            self._config,
            block_uid,
            list(values),
            self._resolved_in_tree,
            context,
            pruner=self._pruner,
        )


# ---------------------------------------------------------------------------
# End-to-end driver
# ---------------------------------------------------------------------------


@dataclass
class ProgressiveResult:
    """Everything one end-to-end run produces.

    ``duplicate_events`` are ``(global time, pair)`` occurrences across both
    phases, already deduplicated to the first discovery of each pair.
    """

    dataset: Dataset
    stats: DatasetStatistics
    schedule: ProgressiveSchedule
    job1: JobResult
    job2: JobResult
    duplicate_events: List[Event]
    balance: Optional["BalancePlan"] = None
    metablock: Optional[MetablockPlan] = None

    @property
    def total_time(self) -> float:
        """End of the second job (start of Job 1 is time zero)."""
        return self.job2.end_time

    @cached_property
    def found_pairs(self) -> Set[Pair]:
        """All distinct pairs reported as duplicates (computed once; the
        event list is never mutated after construction)."""
        return {event.payload for event in self.duplicate_events}


class ProgressiveER:
    """The parallel progressive ER approach, end to end.

    Args:
        config: dataset-specific configuration (see
            :func:`repro.core.config.citeseer_config` /
            :func:`~repro.core.config.books_config`).
        cluster: the simulated Hadoop cluster to run on.
        strategy: tree scheduler — ``"ours"``, ``"nosplit"`` or ``"lpt"``
            (Section VI-B2's comparison).
        seed: seed for training-sample selection and cost-factor sampling.
        balance: post-pass placement strategy — ``"slack"`` (the paper
            baseline: schedule untouched), ``"blocksplit"``, the global
            ``"pairrange"``, or the deprecated ``"pairrange-tree"`` alias
            (see :mod:`repro.core.balance`).
        metablock: meta-blocking pre-pass between blocking and
            scheduling — ``"off"``, ``"bf"`` (block filtering) or
            ``"wnp"`` (weighted node pruning); knobs on the config
            (``metablock_ratio`` / ``metablock_weighting``).  See
            :mod:`repro.core.metablock`.
    """

    def __init__(
        self,
        config: ApproachConfig,
        cluster: Cluster,
        *,
        strategy: str = "ours",
        seed: int = 0,
        balance: str = "slack",
        metablock: str = "off",
    ) -> None:
        self.config = config
        self.cluster = cluster
        self.strategy = strategy
        self.seed = seed
        self.balance = balance
        self.metablock = metablock
        if balance in ("blocksplit", "pairrange") and config.routing == "block":
            raise ValueError(
                f"balance={balance!r} requires tree routing; the naive "
                "block-routing mapper cannot replicate shard groups"
            )
        if metablock not in METABLOCK_MODES:
            raise ValueError(f"unknown metablock mode {metablock!r}")

    def run(self, dataset: Dataset) -> ProgressiveResult:
        """Execute Job 1, the meta-blocking pre-pass (when enabled),
        schedule generation and Job 2 on ``dataset``."""
        mb_plan: Optional[MetablockPlan] = None
        if self.metablock != "off":
            mb_plan = build_metablock_plan(
                dataset.entities,
                self.config.scheme,
                self.metablock,
                ratio=self.config.metablock_ratio,
                weighting=self.config.metablock_weighting,
            )
        annotated, stats, job1 = run_statistics_job(
            self.cluster,
            dataset,
            self.config.scheme,
            pruned=mb_plan.pruned if mb_plan is not None else None,
        )
        estimator = self._build_estimator(dataset)
        model = EstimationModel(
            self.config,
            self.cluster.cost_model,
            estimator,
            len(dataset),
            avg_cost_factor=self._average_cost_factor(dataset),
            pair_scales=self._pair_scales(annotated, stats, mb_plan),
        )
        schedule = generate_schedule(
            stats,
            model,
            self.config,
            self.cluster.num_reduce_tasks,
            strategy=self.strategy,
        )
        plan = apply_balance(schedule, strategy=self.balance)
        if self.cluster.tracer is not None:
            self.cluster.tracer.record_instant(
                "balance-plan",
                "setup",
                job1.end_time,
                job="progressive-resolution",
                strategy=plan.strategy,
                shards=len(plan.shards),
                split_blocks=len(plan.split_blocks),
                moved_trees=plan.moved_trees,
                planned_makespan_before=plan.before.max,
                planned_makespan_after=plan.after.max,
            )
        job2 = self._run_resolution_job(
            annotated, schedule, job1.end_time,
            pruner=mb_plan.pruner if mb_plan is not None else None,
        )
        # Plan statistics are pure functions of the deterministic schedule,
        # so merging them into the job counters keeps backend parity.
        for name, value in plan.counter_items().items():
            job2.counters.increment("balance", name, value)
        if mb_plan is not None:
            for name, value in mb_plan.counter_items().items():
                job2.counters.increment("metablock", name, value)
        events = _first_discoveries(job2.events)
        return ProgressiveResult(
            dataset=dataset,
            stats=stats,
            schedule=schedule,
            job1=job1,
            job2=job2,
            duplicate_events=events,
            balance=plan,
            metablock=mb_plan,
        )

    # ------------------------------------------------------------------

    def _pair_scales(
        self,
        annotated: Sequence[AnnotatedEntity],
        stats: DatasetStatistics,
        mb_plan: Optional[MetablockPlan],
    ) -> Optional[Dict[str, float]]:
        """Per-block candidate-pair fractions for the estimation model.

        In linkage mode a block of ``n_a`` source-``a`` and ``n_b``
        source-``b`` entities only ever compares its ``n_a * n_b`` cross
        pairs; under weighted node pruning only the plan's keep ratio of
        a block's pairs survives.  Each root's fraction (factors multiply
        when both apply) is assigned to its whole subtree — sub-block
        composition tracks its root's closely, and the estimates only
        steer scheduling, never correctness.
        """
        linkage = self.config.mode == "linkage"
        wnp = mb_plan is not None and mb_plan.mode == "wnp"
        if not linkage and not wnp:
            return None
        source_counts: Dict[Tuple[str, str], Dict[Optional[str], int]] = {}
        if linkage:
            for entity, keys in annotated:
                for family, key in keys.items():
                    if key is None:
                        continue
                    counts = source_counts.setdefault((family, key), {})
                    counts[entity.source] = counts.get(entity.source, 0) + 1
        scales: Dict[str, float] = {}
        for family, roots in stats.roots.items():
            for root in roots:
                scale = 1.0
                if linkage:
                    counts = source_counts.get((family, root.key))
                    if counts:
                        total = pairs_count(sum(counts.values()))
                        if total:
                            scale *= cross_pairs_count(counts.values()) / total
                if wnp:
                    scale *= mb_plan.keep_ratios.get((family, root.key), 1.0)
                if scale != 1.0:
                    for block in root.subtree():
                        scales[block.uid] = scale
        return scales or None

    def _build_estimator(self, dataset: Dataset) -> DuplicateEstimator:
        """The duplicate estimator selected by the configuration."""
        kind = self.config.estimator
        if kind == "oracle":
            return OracleEstimator().fit(dataset, self.config.scheme)
        training = dataset.sample(self.config.train_fraction, seed=self.seed)
        learned = LearnedEstimator().fit(training, self.config.scheme)
        if kind == "learned":
            return learned
        # "uniform": keep the overall density, erase the size-dependence.
        return UniformEstimator(learned.probability("*", -1, 1.0))

    def _average_cost_factor(self, dataset: Dataset, samples: int = 200) -> float:
        """Mean comparison-cost factor over random pairs (feeds CostP)."""
        if len(dataset) < 2:
            return 1.0
        rng = random.Random(self.seed + 1)
        total = 0.0
        for _ in range(samples):
            e1, e2 = rng.sample(dataset.entities, 2)
            total += self.config.matcher.comparison_cost_factor(e1, e2)
        return total / samples

    def _run_resolution_job(
        self,
        annotated: Sequence[AnnotatedEntity],
        schedule: ProgressiveSchedule,
        start_time: float,
        *,
        pruner: Optional[WnpPruner] = None,
    ) -> JobResult:
        if self.config.routing == "block":
            job = MapReduceJob(
                mapper_factory=lambda: BlockRoutingMapper(schedule, self.config.scheme),
                reducer_factory=lambda: BlockRoutingReducer(
                    schedule, self.config, pruner
                ),
                partitioner=SequencePartitioner(schedule),
                alpha=self.config.alpha,
                name="progressive-resolution-naive",
            )
        else:
            job = MapReduceJob(
                mapper_factory=lambda: ResolutionMapper(schedule, self.config.scheme),
                reducer_factory=lambda: ResolutionReducer(
                    schedule, self.config, pruner
                ),
                partitioner=SchedulePartitioner(schedule),
                alpha=self.config.alpha,
                name="progressive-resolution",
            )
        return self.cluster.run_job(job, list(annotated), start_time=start_time)


def _first_discoveries(events: Sequence[Event]) -> List[Event]:
    """Keep only the first event per duplicate pair, in time order."""
    seen: Set[Pair] = set()
    result: List[Event] = []
    for event in sorted(
        (e for e in events if e.kind == "duplicate"), key=lambda e: e.time
    ):
        if event.payload in seen:
            continue
        seen.add(event.payload)
        result.append(event)
    return result


__all__ = [
    "ResolutionMapper",
    "SchedulePartitioner",
    "ResolutionReducer",
    "BlockRoutingMapper",
    "SequencePartitioner",
    "BlockRoutingReducer",
    "resolve_scheduled_block",
    "ProgressiveER",
    "ProgressiveResult",
]
