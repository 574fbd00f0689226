"""Progressive mechanism interface and the block-resolution driver.

A *progressive mechanism M* (paper Section II-B) is any ER algorithm —
possibly combined with a hint — that can be applied on a block to identify
its duplicate pairs as quickly as possible.  Here a mechanism contributes
two things:

* a **pair stream**: candidate entity pairs of one block in priority order
  (most-likely-duplicate first), and
* an **additional cost** ``CostA`` (hint generation, sorting, reading) that
  it charges before the first comparison.

:func:`resolve_block` is the shared driver used by both our approach's
reducer and the Basic baseline: it walks the stream, lets the caller veto
pairs (redundancy-free resolution / already-resolved-in-child checks),
invokes the match function, charges comparison cost, and consults a
pluggable stop condition after every comparison.

The driver decides pairs in **batches** through
:class:`~repro.similarity.batch.BatchMatcher`, the one match decider: it
collects up to :data:`DEFAULT_BATCH_PAIRS` admitted pairs from the
stream, decides them in one kernel call, then *replays* the outcomes in
stream order — charging, counting, invoking callbacks and consulting the
stop condition per pair, exactly as a one-pair-at-a-time loop would.
Decisions, charges and stop points do not depend on the batch width; only
wall-clock time does.  Look-ahead into the stream is free in virtual time
because every mechanism charges its ``CostA`` once up front and never per
pair.  Two contracts make the replay safe:

* ``should_resolve`` must be a pure function of the entity *pair* (the
  in-repo vetoes — redundancy sets keyed by id pairs — are); the driver
  additionally flushes the pending batch before admitting a pair whose id
  pair already occurred in it, so a veto consulted at collection time can
  never miss state an earlier occurrence of the *same pair* would have
  written.
* pair streams must not call ``charge`` per yielded pair (all in-repo
  mechanisms front-load their cost; a stream that charged lazily would see
  those charges reordered relative to comparison charges).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Protocol, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.clock import CostModel
from ..similarity.batch import BatchMatcher
from ..similarity.matchers import WeightedMatcher

SortKey = Callable[[Entity], object]
ChargeFn = Callable[[float], float]
PairCallback = Callable[[Entity, Entity], None]
ShouldResolve = Callable[[Entity, Entity], bool]

#: Pairs decided per batch-kernel call.  Large enough to amortize the
#: kernel's per-batch setup and trip its vectorized paths, small enough
#: that stop-condition look-ahead stays cheap (a fired stop discards at
#: most one batch of pulled-but-undecided pairs, which cost no virtual
#: time).  Read at call time, so tests can monkeypatch it.
DEFAULT_BATCH_PAIRS = 64


@dataclass
class ResolveStats:
    """Mutable tally of one block resolution.

    Attributes:
        comparisons: resolve-function invocations actually performed.
        duplicates: pairs declared duplicates.
        distincts: pairs declared distinct.
        skipped: pairs vetoed by ``should_resolve`` (redundancy / already
            resolved in a child block).
        filtered: pairs vetoed by the scenario-level ``pair_filter``
            (e.g. same-source pairs in clean-clean linkage) — not
            candidates at all, so they cost nothing and never touch the
            stop budget.
        pruned: pairs vetoed by the meta-blocking ``prune`` predicate.
            Pruned pairs cost nothing but *do* consume the distinct-pair
            budget (see :class:`DistinctBudget`), so a pruned run stops no
            later than its unpruned twin at every stream position — the
            structural guarantee behind "pruned output ⊆ unpruned output".
        exhausted: True when the pair stream ran dry (block fully resolved
            up to the mechanism's window), False when the stop condition
            fired first.
    """

    comparisons: int = 0
    duplicates: int = 0
    distincts: int = 0
    skipped: int = 0
    filtered: int = 0
    pruned: int = 0
    exhausted: bool = False


class StopCondition(Protocol):
    """Consulted after every comparison; ``True`` terminates the block."""

    def should_stop(self, stats: ResolveStats, was_duplicate: bool) -> bool:
        """Decide termination given the running stats of this block."""
        ...


class NeverStop:
    """Run the mechanism to stream exhaustion (Basic F / root blocks)."""

    def should_stop(self, stats: ResolveStats, was_duplicate: bool) -> bool:
        return False


class DistinctBudget:
    """Terminate after ``threshold`` distinct pairs (paper Section III-A).

    This is the termination threshold ``Th(X^i_j)`` used for non-root
    blocks: the mechanism keeps going while it finds duplicates and stops
    once it has burned the distinct-pair budget.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.threshold = threshold

    def should_stop(self, stats: ResolveStats, was_duplicate: bool) -> bool:
        # Meta-blocking-pruned pairs consume budget as if they had been
        # compared and found distinct: at every stream position the pruned
        # run has burned at least as much budget as its unpruned twin, so
        # it stops no later — which is what makes the pruned run's output
        # a subset of the unpruned run's.  Plain runs have pruned == 0.
        return stats.distincts + stats.pruned >= self.threshold


class Mechanism(ABC):
    """Base class for progressive mechanisms."""

    #: short identifier used in reports.
    name: str = "mechanism"

    @abstractmethod
    def pair_stream(
        self,
        entities: Sequence[Entity],
        window: int,
        sort_key: SortKey,
        charge: ChargeFn,
        cost_model: CostModel,
    ) -> Iterator[Tuple[Entity, Entity]]:
        """Yield candidate pairs in priority order, charging ``CostA`` first."""

    @abstractmethod
    def additional_cost(self, n: int, window: int, cost_model: CostModel) -> float:
        """``CostA`` estimate for a block of size ``n`` (used by both the
        real charging and the cost model of Section IV-B)."""


def block_sort_key(entity: Entity, primary: str) -> Tuple[str, str]:
    """Sorting key for SN-style mechanisms: the blocking attribute first
    (the paper sorts each block on the attribute its blocking function is
    defined on), the remaining attributes as tie-break.

    The tie-break matters in blocks keyed on low-cardinality attributes
    (e.g. venue): thousands of entities share the identical primary value,
    and without a content tie-break duplicates would be scattered randomly
    across the tie region, far outside any realistic window.  The title
    (the most stable attribute in both datasets) leads the tie-break, then
    the remaining attributes in name order.
    """
    parts = []
    if primary != "title":
        parts.append(entity.get("title"))
    parts.extend(
        value
        for name, value in sorted(entity.attrs.items())
        if name != primary and name != "title"
    )
    return entity.get(primary), "\x1f".join(parts)


def window_pairs_count(n: int, window: int) -> int:
    """Number of pairs at rank distance < ``window`` in a sorted list of n.

    ``sum_{d=1}^{min(w-1, n-1)} (n - d)`` — the work an SN-style mechanism
    performs when run to exhaustion.
    """
    if n < 2 or window < 2:
        return 0
    dmax = min(window - 1, n - 1)
    return dmax * n - dmax * (dmax + 1) // 2


def decide_in_batches(
    batcher: BatchMatcher, pairs: Sequence[Tuple[Entity, Entity]]
) -> Iterator[Tuple[Tuple[Entity, Entity], float, bool]]:
    """Yield ``(pair, cost_factor, is_duplicate)`` for every pair, in order.

    Decides :data:`DEFAULT_BATCH_PAIRS` pairs per kernel call, for callers
    that decide every pair (no stop condition to replay).
    """
    width = DEFAULT_BATCH_PAIRS
    for start in range(0, len(pairs), width):
        chunk = pairs[start : start + width]
        yield from zip(chunk, batcher.cost_factors(chunk), batcher.decisions(chunk))


def resolve_block(
    entities: Sequence[Entity],
    mechanism: Mechanism,
    *,
    window: int,
    sort_key: SortKey,
    matcher: WeightedMatcher,
    cost_model: CostModel,
    charge: ChargeFn,
    on_duplicate: PairCallback,
    should_resolve: Optional[ShouldResolve] = None,
    pair_filter: Optional[ShouldResolve] = None,
    prune: Optional[ShouldResolve] = None,
    stop: Optional[StopCondition] = None,
    on_resolved: Optional[Callable[[Entity, Entity, bool], None]] = None,
    pair_range: Optional[Tuple[int, int]] = None,
    charge_compare: Optional[ChargeFn] = None,
) -> ResolveStats:
    """Resolve one block with mechanism M (shared driver).

    Args:
        entities: the block's members.
        mechanism: the progressive mechanism M.
        window: SN-style window size for this block.
        sort_key: attribute extractor used to sort the block (the paper
            sorts on the attribute the blocking was performed on).
        matcher: the resolve/match function.
        cost_model: unit costs.
        charge: task-clock charging callback.
        on_duplicate: called for every pair declared duplicate.
        should_resolve: optional veto; a vetoed pair costs nothing and is
            counted in ``stats.skipped``.
        pair_filter: optional scenario-level candidate predicate (e.g.
            "cross-source only" in clean-clean linkage).  A rejected pair
            costs nothing, is counted in ``stats.filtered`` and does not
            touch the stop budget — it was never a candidate.
        prune: optional meta-blocking veto.  A rejected pair costs
            nothing and is counted in ``stats.pruned``; pruned pairs *do*
            consume the :class:`DistinctBudget` (checked in stream order),
            so pruning can only make a block stop earlier, never extend
            its resolution deeper into the stream.  Must be a pure
            function of the entity pair.
        stop: stop condition (default: run to exhaustion).
        on_resolved: optional observer called for every *performed*
            comparison with the verdict (used to track per-tree resolved
            pairs so parents skip work done in children).
        pair_range: optional ``(start, stop)`` half-open slice of the raw
            pair-stream positions — only pairs at those positions are
            considered (load-balancing shards of oversized root blocks).
            Positions outside the range are free: no veto, no charge, no
            stats.  ``CostA`` is still charged by the stream itself.
        charge_compare: optional charging callback used for the per-pair
            comparison charges only (default: ``charge``).  Lets callers
            tag comparison cost separately from ``CostA`` for cost-model
            calibration without touching the mechanism interface.

    Returns:
        the final :class:`ResolveStats` of the block.
    """
    stats = ResolveStats()
    if charge_compare is None:
        charge_compare = charge
    condition = stop if stop is not None else NeverStop()
    first, last = (0, None) if pair_range is None else pair_range
    if first < 0 or (last is not None and last < first):
        raise ValueError(f"invalid pair_range {pair_range!r}")
    stream = mechanism.pair_stream(entities, window, sort_key, charge, cost_model)
    width = DEFAULT_BATCH_PAIRS
    batcher = BatchMatcher(matcher)
    # Pending entries in stream order: a pair to decide, or the stat name
    # ("skipped" / "filtered" / "pruned") of a vetoed position, replayed so
    # stats — and budget consumption by pruned pairs — interleave in
    # stream order.
    pending: List[object] = []
    to_decide: List[Tuple[Entity, Entity]] = []
    batch_idents = set()

    def _flush() -> bool:
        """Decide and replay the pending batch; True when stop fired."""
        if not pending:
            return False
        factors = batcher.cost_factors(to_decide)
        decisions = batcher.decisions(to_decide)
        index = 0
        stopped = False
        for entry in pending:
            if isinstance(entry, str):
                setattr(stats, entry, getattr(stats, entry) + 1)
                if entry == "pruned" and condition.should_stop(stats, False):
                    stopped = True
                    break
                continue
            e1, e2 = entry
            charge_compare(cost_model.compare * factors[index])
            is_dup = decisions[index]
            index += 1
            stats.comparisons += 1
            if is_dup:
                stats.duplicates += 1
                on_duplicate(e1, e2)
            else:
                stats.distincts += 1
            if on_resolved is not None:
                on_resolved(e1, e2, is_dup)
            if condition.should_stop(stats, is_dup):
                stopped = True
                break
        pending.clear()
        to_decide.clear()
        batch_idents.clear()
        return stopped

    position = -1
    for e1, e2 in stream:
        position += 1
        if position < first:
            continue
        if last is not None and position >= last:
            break
        if pair_filter is not None and not pair_filter(e1, e2):
            pending.append("filtered")
            continue
        if prune is not None and not prune(e1, e2):
            pending.append("pruned")
            continue
        ident = (e1.id, e2.id) if e1.id <= e2.id else (e2.id, e1.id)
        if ident in batch_idents:
            # The same pair again before the first occurrence was decided:
            # flush so the veto below sees that decision's state updates.
            if _flush():
                return stats
        if should_resolve is not None and not should_resolve(e1, e2):
            pending.append("skipped")
            continue
        pending.append((e1, e2))
        to_decide.append((e1, e2))
        batch_idents.add(ident)
        if len(to_decide) >= width:
            if _flush():
                return stats
    if _flush():
        return stats
    stats.exhausted = True
    return stats


__all__ = [
    "Mechanism",
    "ResolveStats",
    "StopCondition",
    "NeverStop",
    "DistinctBudget",
    "resolve_block",
    "decide_in_batches",
    "window_pairs_count",
    "SortKey",
    "DEFAULT_BATCH_PAIRS",
]
