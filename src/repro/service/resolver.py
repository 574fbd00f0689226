"""The incremental resolver service: a session-oriented streaming ER API.

A :class:`ResolverService` is a long-lived resolver.  Batches of entities
arrive via :meth:`~ResolverService.submit`; each batch is blocked against
the persistent forest, only the *affected* blocks re-enter resolution (as
one delta MapReduce job on the session cluster), and the found-pair set,
similarity memo and virtual clock persist across batches.  Consumers
stream new pairs with :meth:`~ResolverService.pairs`, query live cluster
membership with :meth:`~ResolverService.cluster_of`, and round-trip the
whole service state with :meth:`~ResolverService.snapshot` /
:meth:`~ResolverService.restore`.

The headline invariant (pinned by the differential-oracle tests): any
partition of N entities into k submit batches yields exactly the final
found-pair set of submitting all N at once — across serial and process
backends, with or without a fault plan.  See :mod:`repro.service.delta`
for why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.config import ApproachConfig
from ..data.entity import Entity, Pair, pair_key
from ..evaluation.clustering import UnionFind
from ..mapreduce.job import stable_hash
from .delta import build_delta_job, plan_delta
from .session import ResolverSession
from .store import BlockRoute, EntityStore

#: Version tag of the snapshot wire format.
SNAPSHOT_FORMAT = 1

#: Default minimum number of agreeing key families for a candidate pair
#: (clamped to the scheme's family count, so single-family schemes degrade
#: to plain co-blocking).
DEFAULT_MIN_FAMILY_MATCHES = 2


def config_fingerprint(config: ApproachConfig, min_family_matches: int) -> str:
    """A stable digest of everything that shapes the found-pair set.

    Snapshots embed it so :meth:`ResolverService.restore` can refuse a
    config whose blocking keys or match decisions would diverge from the
    state being restored.
    """
    scheme = config.scheme
    parts: List[str] = [f"min_matches={min_family_matches}", f"mode={config.mode}"]
    for family in scheme.family_order:
        functions = scheme.families[family]
        parts.append(
            f"{family}:" + ",".join(f"{f.level}|{f.description}" for f in functions)
        )
    matcher = config.matcher
    parts.append(f"threshold={matcher.threshold!r}")
    for rule in matcher.rules:
        parts.append(
            f"rule={rule.attribute}|{rule.comparator}|{rule.weight!r}|{rule.max_chars!r}"
        )
    return f"{stable_hash(tuple(parts)):016x}"


@dataclass(frozen=True)
class PairEvent:
    """One found duplicate pair, with its position in the service stream.

    ``seq`` is a strictly increasing cursor (1-based) — hand the last seen
    value back to :meth:`ResolverService.pairs` to stream only news.
    ``time`` is the global virtual time of the discovery.
    """

    seq: int
    pair: Pair
    batch: int
    time: float


@dataclass(frozen=True)
class BatchReceipt:
    """What one :meth:`ResolverService.submit` call did.

    Attributes:
        batch: 1-based batch number.
        added: entities admitted from this batch.
        affected_blocks: level-1 blocks containing at least one new entity
            (only these re-entered resolution).
        planned_pairs: candidate-pair upper bound the placement planned for.
        comparisons: similarity decisions actually made.
        duplicates: new duplicate pairs found by this batch.
        pairs: those pairs, in discovery order.
        start_time / end_time: the batch's global virtual-time window.
        first_seq / last_seq: stream-cursor range of the new pairs
            (``first_seq > last_seq`` when the batch found nothing).
    """

    batch: int
    added: int
    affected_blocks: int
    planned_pairs: int
    comparisons: int
    duplicates: int
    pairs: Tuple[Pair, ...]
    start_time: float
    end_time: float
    first_seq: int
    last_seq: int


class ResolverService:
    """A long-lived incremental resolver over one approach configuration.

    Args:
        config: the :class:`~repro.core.config.ApproachConfig` supplying
            the blocking scheme and match function (Basic configs have no
            forest to keep warm and are rejected).
        machines: simulated cluster size for the delta jobs.
        balance: placement strategy for affected blocks — ``"slack"``
            (hash placement), or any sharding strategy (``"blocksplit"``,
            ``"pairrange"``, ``"pairrange-tree"``: shard oversized
            blocks, LPT placement — at delta granularity they share one
            scheme).  Output-invariant.
        min_family_matches: key families that must agree before a pair is
            compared (clamped to the scheme's family count).
        backend / workers / executor / cost_model / tracer / metrics /
            faults: forwarded to the underlying session cluster, exactly
            as :class:`~repro.evaluation.experiment.RunSpec` takes them.
        scheduler: optional
            :class:`~repro.scheduling.scheduler.JobScheduler` this
            service shares slots through.  The service is adopted under
            ``tenant``; its delta jobs then place work on the
            scheduler's shared timeline (immediately on direct
            :meth:`submit` calls, or under fair-share dispatch when
            batches go through ``scheduler.submit_batch``).
        tenant: accounting tenant for scheduler slot usage (only
            meaningful with ``scheduler``).
    """

    def __init__(
        self,
        config: ApproachConfig,
        *,
        machines: int = 4,
        balance: str = "slack",
        min_family_matches: int = DEFAULT_MIN_FAMILY_MATCHES,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        executor: Optional[Any] = None,
        cost_model: Optional[Any] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        faults: Optional[Any] = None,
        label: str = "service",
        scheduler: Optional[Any] = None,
        tenant: str = "service",
    ) -> None:
        if not isinstance(config, ApproachConfig):
            raise TypeError(
                "ResolverService needs an ApproachConfig (a blocking scheme "
                f"to keep warm); got {type(config).__name__}"
            )
        from ..evaluation.experiment import RunSpec

        self.config = config
        self.min_family_matches = min(
            max(1, min_family_matches), config.scheme.num_families
        )
        self.spec = RunSpec(
            dataset=None,
            config=config,
            machines=machines,
            balance=balance,
            label=label,
            cost_model=cost_model,
            backend=backend,
            workers=workers,
            executor=executor,
            tracer=tracer,
            metrics=metrics,
            faults=faults,
        )
        self.session = ResolverSession(self.spec)
        self.session.begin_run(label)
        self.scheduler = scheduler
        self.tenant = tenant
        if scheduler is not None:
            scheduler.adopt_service(self, tenant=tenant)
        self.store = EntityStore(config.scheme)
        self._events: List[PairEvent] = []
        self._found: Set[Pair] = set()
        self._decisions: Dict[Pair, bool] = {}
        self._clusters = UnionFind()
        self._clock = 0.0
        self._batches = 0
        self._comparisons = 0
        self._receipts: List[BatchReceipt] = []

    # -- core API ----------------------------------------------------------

    def submit(self, entities: Iterable[Entity]) -> BatchReceipt:
        """Admit a batch and resolve everything it can change."""
        batch_entities = list(entities)
        self._check_batch(batch_entities)
        batch = self._batches + 1
        annotated = [
            (entity, self.store.annotate(entity)) for entity in batch_entities
        ]
        affected = self._affected_blocks(annotated)
        self.store.admit(annotated, batch)
        self._batches = batch

        start_time = self._clock
        if not affected:
            receipt = BatchReceipt(
                batch=batch, added=len(batch_entities), affected_blocks=0,
                planned_pairs=0, comparisons=0, duplicates=0, pairs=(),
                start_time=start_time, end_time=start_time,
                first_seq=len(self._events) + 1, last_seq=len(self._events),
            )
            self._receipts.append(receipt)
            return receipt

        plan = plan_delta(
            affected, self.session.cluster.num_reduce_tasks, self.spec.balance
        )
        job = build_delta_job(
            plan,
            self.config.matcher,
            self.config.scheme.family_order,
            min_family_matches=self.min_family_matches,
            cross_source_only=self.config.mode == "linkage",
            alpha=self.config.alpha,
            name=f"delta-resolution-{batch}",
        )
        records = self._delta_records(affected)
        result = self.session.run_job(job, records, start_time=start_time)
        self._clock = result.end_time

        first_seq = len(self._events) + 1
        new_pairs: List[Pair] = []
        for pair, verdict in result.output:
            self._decisions.setdefault(pair, verdict)
        for event in result.events:
            if event.kind != "duplicate":
                continue
            pair = event.payload
            if pair in self._found:
                continue
            self._found.add(pair)
            self._clusters.union(*pair)
            new_pairs.append(pair)
            self._events.append(
                PairEvent(seq=len(self._events) + 1, pair=pair,
                          batch=batch, time=event.time)
            )
        comparisons = result.counters.get("service", "comparisons")
        self._comparisons += comparisons
        receipt = BatchReceipt(
            batch=batch,
            added=len(batch_entities),
            affected_blocks=plan.num_blocks,
            planned_pairs=plan.total_planned,
            comparisons=comparisons,
            duplicates=len(new_pairs),
            pairs=tuple(new_pairs),
            start_time=start_time,
            end_time=result.end_time,
            first_seq=first_seq,
            last_seq=len(self._events),
        )
        self._receipts.append(receipt)
        return receipt

    def pairs(self, since: int = 0) -> List[PairEvent]:
        """Found-pair events after stream cursor ``since`` (0 = all)."""
        if since < 0:
            raise ValueError(f"since must be >= 0, got {since}")
        if since >= len(self._events):
            return []
        return list(self._events[since:])

    def cluster_of(self, entity_id: int) -> Tuple[int, ...]:
        """Live cluster membership of an admitted entity (sorted ids)."""
        if entity_id not in self.store:
            raise KeyError(f"entity id {entity_id} was never submitted")
        root = self._clusters.find(entity_id)
        return tuple(sorted(
            other for other in self.store.entity_ids()
            if self._clusters.find(other) == root
        ))

    # -- inspection --------------------------------------------------------

    @property
    def found_pairs(self) -> FrozenSet[Pair]:
        """All duplicate pairs found so far."""
        return frozenset(self._found)

    @property
    def total_entities(self) -> int:
        return len(self.store)

    @property
    def total_comparisons(self) -> int:
        return self._comparisons

    @property
    def clock(self) -> float:
        """Current global virtual time (end of the last delta job)."""
        return self._clock

    @property
    def receipts(self) -> List[BatchReceipt]:
        return list(self._receipts)

    def clusters(self) -> List[List[int]]:
        """All multi-entity clusters, sorted for determinism."""
        return self._clusters.groups()

    def stats(self) -> Dict[str, Any]:
        """A summary dict for reports and the CLI."""
        return {
            "entities": self.total_entities,
            "batches": self._batches,
            "blocks": self.store.num_blocks(),
            "comparisons": self._comparisons,
            "found_pairs": len(self._found),
            "clusters": len(self.clusters()),
            "virtual_time": self._clock,
        }

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable state: entities, stream, decisions, clock."""
        stored = sorted(self.store.stored(), key=lambda s: s.entity.id)
        return {
            "format": SNAPSHOT_FORMAT,
            "fingerprint": config_fingerprint(self.config, self.min_family_matches),
            "clock": self._clock,
            "batches": self._batches,
            "comparisons": self._comparisons,
            "entities": [
                {
                    "id": s.entity.id,
                    "attrs": dict(s.entity.attrs),
                    "source": s.entity.source,
                    "batch": s.batch,
                }
                for s in stored
            ],
            "events": [
                {"seq": e.seq, "pair": list(e.pair), "batch": e.batch, "time": e.time}
                for e in self._events
            ],
            "decisions": [
                [pair[0], pair[1], verdict]
                for pair, verdict in sorted(self._decisions.items())
            ],
        }

    @classmethod
    def restore(cls, snapshot: Dict[str, Any], config: ApproachConfig,
                **service_options: Any) -> "ResolverService":
        """Rebuild a service from :meth:`snapshot` output.

        ``config`` must be behaviorally identical to the snapshotting
        service's (checked via the embedded fingerprint); keys are
        recomputed from it, so only entities, stream state and the clock
        travel in the snapshot.
        """
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported snapshot format {snapshot.get('format')!r} "
                f"(this build reads format {SNAPSHOT_FORMAT})"
            )
        service = cls(config, **service_options)
        expected = config_fingerprint(config, service.min_family_matches)
        if snapshot.get("fingerprint") != expected:
            raise ValueError(
                "snapshot was taken under a different blocking scheme or "
                "matcher; restoring it here would silently change the "
                "found-pair set"
            )
        by_batch: Dict[int, List[Entity]] = {}
        for row in snapshot["entities"]:
            entity = Entity(
                int(row["id"]), dict(row["attrs"]), source=row.get("source")
            )
            by_batch.setdefault(int(row["batch"]), []).append(entity)
        for batch in sorted(by_batch):
            annotated = [
                (entity, service.store.annotate(entity))
                for entity in by_batch[batch]
            ]
            service.store.admit(annotated, batch)
        for row in snapshot["events"]:
            pair = pair_key(int(row["pair"][0]), int(row["pair"][1]))
            event = PairEvent(
                seq=int(row["seq"]), pair=pair,
                batch=int(row["batch"]), time=float(row["time"]),
            )
            service._events.append(event)
            service._found.add(pair)
            service._clusters.union(*pair)
        for a, b, verdict in snapshot.get("decisions", ()):
            service._decisions[pair_key(int(a), int(b))] = bool(verdict)
        service._clock = float(snapshot["clock"])
        service._batches = int(snapshot["batches"])
        service._comparisons = int(snapshot["comparisons"])
        return service

    # -- internals ---------------------------------------------------------

    def _check_batch(self, batch_entities: Sequence[Entity]) -> None:
        seen: Set[int] = set()
        for entity in batch_entities:
            if not isinstance(entity, Entity):
                raise TypeError(
                    f"submit() takes Entity records, got {type(entity).__name__}"
                )
            if entity.id in seen:
                raise ValueError(f"batch contains entity id {entity.id} twice")
            if entity.id in self.store:
                raise ValueError(
                    f"entity id {entity.id} was already submitted; ids are "
                    "immutable once admitted"
                )
            seen.add(entity.id)

    def _affected_blocks(
        self, annotated: Sequence[Tuple[Entity, Dict[str, Optional[str]]]]
    ) -> Dict[BlockRoute, List[Tuple[int, bool]]]:
        """Blocks gaining a member this batch, with (id, is_new) rosters."""
        new_by_route: Dict[BlockRoute, List[int]] = {}
        for entity, keys in annotated:
            for route in self.store.routes_of(keys):
                new_by_route.setdefault(route, []).append(entity.id)
        affected: Dict[BlockRoute, List[Tuple[int, bool]]] = {}
        for route, new_ids in sorted(new_by_route.items()):
            members = [(i, False) for i in self.store.members(route)]
            members.extend((i, True) for i in new_ids)
            if len(members) < 2:
                continue
            members.sort()
            affected[route] = members
        return affected

    def _delta_records(
        self, affected: Dict[BlockRoute, List[Tuple[int, bool]]]
    ) -> List[Any]:
        """Map input: every member of an affected block, annotated, once."""
        wanted: Dict[int, bool] = {}
        for members in affected.values():
            for entity_id, is_new in members:
                wanted[entity_id] = is_new
        records = []
        for entity_id in sorted(wanted):
            stored = self.store.get(entity_id)
            records.append((stored.entity, stored.keys, wanted[entity_id]))
        return records


__all__ = [
    "SNAPSHOT_FORMAT",
    "DEFAULT_MIN_FAMILY_MATCHES",
    "config_fingerprint",
    "PairEvent",
    "BatchReceipt",
    "ResolverService",
]
