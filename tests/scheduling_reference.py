"""Reference slot placements the engine's one scheduler is checked against.

Every phase the engine runs is placed by
:class:`~repro.mapreduce.faults.FaultScheduler`.  Under a plan that never
crashes or slows an attempt it must reduce to classic static-slot
placement, so the zero-rate oracles compare it with two plain placement
loops:

* :class:`SlotPool` — one job owns every slot from phase start;
  earliest-free slot first, ties by slot index;
* :func:`lease_schedule` — a phase on a multi-tenant lease: the same
  choice over the shared lanes' raw free times, with every start floored
  at the lease's grant time.

:func:`plan_with_failures` builds seeded plans with an exact, readable
crash pattern for the tests that need "task 0 crashes twice".
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Sequence, Tuple

from repro.mapreduce import FaultPlan, RetryPolicy


class SlotPool:
    """Earliest-free-slot placement over ``num_slots`` identical slots.

    Backed by a min-heap of ``(free_at, slot_index)`` pairs; ties on
    ``free_at`` break by slot index.
    """

    def __init__(self, num_slots: int, ready_time: float) -> None:
        if num_slots <= 0:
            raise ValueError(f"need at least one slot, got {num_slots}")
        # Already heap-ordered: equal times, ascending slot index.
        self._heap: List[Tuple[float, int]] = [
            (ready_time, slot) for slot in range(num_slots)
        ]
        self._makespan = ready_time

    def schedule(self, cost: float) -> Tuple[float, float, int]:
        """Place a task of ``cost`` units; returns ``(start, end, slot)``."""
        if not math.isfinite(cost) or cost < 0:
            raise ValueError(f"task cost must be finite and >= 0, got {cost}")
        start, slot = heapq.heappop(self._heap)
        end = start + cost
        heapq.heappush(self._heap, (end, slot))
        if end > self._makespan:
            self._makespan = end
        return start, end, slot

    @property
    def makespan(self) -> float:
        """Global time at which every slot is free again."""
        return self._makespan


def lease_schedule(
    lanes: List[float], floor: float, cost: float
) -> Tuple[float, float, int]:
    """Place one task on the earliest-free lane, floored at ``floor``.

    Mutates ``lanes`` in place and returns ``(start, end, lane)``.  The
    lane is chosen by its *raw* free time, so among lanes that are all
    free before the floor it picks the one that freed first — where the
    engine's scheduler, which sees every such lane as free at the floor,
    picks the lowest index.  Starts, ends and the lanes' free times
    floored at ``floor`` are the same either way.
    """
    if not math.isfinite(cost) or cost < 0:
        raise ValueError(f"task cost must be finite and >= 0, got {cost}")
    lane = min(range(len(lanes)), key=lambda i: (lanes[i], i))
    start = max(lanes[lane], floor)
    end = start + cost
    lanes[lane] = end
    return start, end, lane


def crash_pattern(
    plan: FaultPlan, job: str, phase: str, num_tasks: int
) -> List[int]:
    """Crashes each task suffers before its first clean attempt (no
    speculation): the prior-failure ordinals the scheduler draws."""
    pattern = []
    for task in range(num_tasks):
        failures = 0
        while failures < plan.retry.max_attempts and plan.attempt_fails(
            job, phase, task, failures
        ):
            failures += 1
        pattern.append(failures)
    return pattern


def plan_with_failures(
    job: str,
    *,
    map_crashes: Sequence[int],
    reduce_crashes: Sequence[int],
    fault_rate: float = 0.5,
    retry: RetryPolicy = RetryPolicy(),
) -> FaultPlan:
    """The lowest-seed plan under which map task ``i`` of ``job`` crashes
    exactly ``map_crashes[i]`` times and reduce task ``i`` exactly
    ``reduce_crashes[i]`` times before succeeding."""
    wanted: Dict[str, List[int]] = {
        "map": list(map_crashes),
        "reduce": list(reduce_crashes),
    }
    for seed in range(100_000):
        plan = FaultPlan(seed=seed, fault_rate=fault_rate, retry=retry)
        if all(
            crash_pattern(plan, job, phase, len(counts)) == counts
            for phase, counts in wanted.items()
        ):
            return plan
    raise AssertionError(f"no seed below 100000 yields {wanted} for {job!r}")
