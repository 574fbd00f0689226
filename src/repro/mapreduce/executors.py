"""Pluggable execution backends for the MapReduce simulator.

The paper's whole point is *parallel* progressive ER, yet virtual time says
nothing about wall-clock time: the simulator historically ran every task of
every phase serially in one Python process.  This module separates the two
concerns:

* the **per-task computation** (:func:`compute_map_task` /
  :func:`compute_reduce_task`) is a pure function of ``(job, input split,
  task id, cost model)`` — it produces a :class:`MapTaskPayload` /
  :class:`ReduceTaskPayload` holding the task's virtual cost, local-time
  events, outputs and counters;
* the **accounting** (slot scheduling, event rebasing, counter aggregation,
  partitioning) stays in :class:`repro.mapreduce.engine.Cluster`, which
  places the payloads on slots with a
  :class:`~repro.mapreduce.faults.FaultScheduler` in task-id order.

An :class:`Executor` only decides *where* the per-task computations run:

* :class:`SerialExecutor` — in-process, one task at a time (the default);
* :class:`ParallelExecutor` — fans tasks out to long-lived forked worker
  processes that pull tasks from a shared queue for the duration of one
  *job* (both phases), moving bulk bytes through shared memory and keeping
  an adaptive serial fallback for phases too small to pay for IPC.

Parallel runtime design
-----------------------
The engine brackets every job with :meth:`Executor.begin_job` /
:meth:`Executor.end_job`.  For the parallel backend that means:

* **one fork per job, not per phase** — the job (full of lambdas and
  schedule objects, so never picklable) and its map splits are stashed in a
  module global before the workers fork; workers inherit everything
  copy-on-write and both phases run through the same workers.  Workers are
  spawned lazily, so a job whose phases all fall under the serial floor
  never forks at all.
* **pull-based work stealing** — tasks are not pre-assigned: the driver
  enqueues task descriptors (reduce units heaviest-first, integrating the
  balance shards of skewed schedules) on one shared queue and every idle
  worker pulls the next one.  A slow worker simply pulls less; a fast one
  "steals" the work a static round-robin split would have pinned
  elsewhere.  ``steal_tasks`` counts tasks that ran on a different worker
  than round-robin would have chosen, ``worker_idle_ms`` sums the time
  workers spent blocked on the queue.
* **shared-memory data plane, descriptor control plane** — bulk bytes
  never cross the queue pipe.  Reduce inputs (which only exist in the
  driver — they are map outputs) are wire-encoded once into a single
  per-phase :mod:`multiprocessing.shared_memory` segment; each task
  message carries only ``(segment name, offset, length)``.  Result
  payloads travel back through a per-worker shared-memory arena the same
  way, with a small descriptor on the results queue.  ``ipc_*_bytes``
  therefore count only descriptors; ``shm_*_bytes`` count the bulk bytes
  that moved through shared memory, and ``payload_wire_bytes`` the encoded
  payload size independent of transport.  Platforms without working shared
  memory degrade to inline blobs on the queues (results identical).
* **slim wire format** — payloads and shipped reduce inputs are encoded by
  :mod:`repro.mapreduce.wire` rather than as plain dataclass pickles,
  whether they land in shared memory or inline; with ``profile_wire`` on,
  the plain-pickle baseline is measured too (``ipc_payload_raw_bytes``).
* **adaptive serial fallback** — a phase whose estimated virtual cost is
  below :attr:`ParallelExecutor.serial_floor` runs in-process: the
  dispatch overhead would exceed the fanned-out compute.

Determinism contract
--------------------
Both backends produce **bit-for-bit identical** job results: the payload of
a task depends only on the task's inputs (tasks never share mutable state —
each gets a fresh mapper/reducer from its factory), floating-point virtual
costs are computed by the same pure Python code in either process, the wire
encoding is lossless, and the driver consumes payloads in task-id order
regardless of the order workers finish in.  Wall-clock time — and the
`driver.*` performance statistics that describe it — is the only observable
difference, which is why those statistics live in the metrics registry and
never inside job counters.

Fault injection keeps the contract for free: every fault decision (seeded
crashes, straggler slowdowns, speculation — see
:mod:`repro.mapreduce.faults`) is made *in the driver* from the plan's seed
and the payloads' virtual costs, never inside a worker and never from
wall-clock time, so a faulty run is just as backend-independent as a clean
one.

Worker serialization caveats
----------------------------
Jobs routinely close over lambdas and rich schedule objects, so the job is
*not* pickled to workers; the parallel backend requires the POSIX ``fork``
start method.  Task results (and shipped reduce inputs) cross the pipe
wire-encoded, so everything a mapper emits, a reducer writes, and every
event payload must be picklable.  On platforms without ``fork`` the
parallel backend transparently degrades to in-process execution (results
are identical either way).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

from . import wire
from .clock import CostModel
from .counters import Counters
from .job import MapReduceJob, TaskContext
from .types import Event, KeyValue, OutputFile, SpanFragment

#: Per-task statistic deltas: ``(group, name, delta)`` triples.
StatDeltas = Tuple[Tuple[str, str, int], ...]


@dataclass
class MapTaskPayload:
    """Everything one map task computed, in task-local virtual time.

    Attributes:
        task_id: index of the task within the map phase.
        cost: total virtual cost the task accumulated.
        events: events recorded by the task (local time; the engine rebases
            them to global time once the task is scheduled on a slot).
        emitted: the task's intermediate key-value pairs, post-combiner.
        counters: counters the task incremented.
        num_records: input records the task consumed.
        combine_input / combine_output: combiner fold sizes (0 when the job
            has no combiner).
        spans: trace-span fragments recorded by the task (local time, like
            ``events``); empty unless the running cluster has a tracer.
        stat_deltas: per-task deltas of registered process statistics (see
            :func:`register_task_stat_source`) — e.g. the similarity-cache
            hits/misses this task caused in whichever process ran it.
            Wall-clock bookkeeping only: the engine routes them to the
            metrics registry, never into job counters, because per-worker
            cache state legitimately differs between backends.
        wall_ns: wall-clock nanoseconds the task body took in whichever
            process ran it (cost-model calibration input; never read by
            virtual time).
        charge_profile: sorted ``(category, units)`` pairs of the task's
            tagged virtual charges (see ``TaskContext.charge``); the
            untagged remainder is ``cost - sum(units)``.
    """

    task_id: int
    cost: float
    events: List[Event]
    emitted: List[KeyValue]
    counters: Counters
    num_records: int
    combine_input: int = 0
    combine_output: int = 0
    spans: List[SpanFragment] = field(default_factory=list)
    stat_deltas: StatDeltas = ()
    wall_ns: int = 0
    charge_profile: Tuple[Tuple[str, float], ...] = ()


@dataclass
class ReduceTaskPayload:
    """Everything one reduce task computed, in task-local virtual time."""

    task_id: int
    cost: float
    events: List[Event]
    written: List[Any]
    files: List[OutputFile] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    num_groups: int = 0
    num_records: int = 0
    spans: List[SpanFragment] = field(default_factory=list)
    stat_deltas: StatDeltas = ()
    wall_ns: int = 0
    charge_profile: Tuple[Tuple[str, float], ...] = ()


# ---------------------------------------------------------------------------
# Per-task process statistics (similarity-cache deltas et al.)
# ---------------------------------------------------------------------------

#: Registered statistic sources: group -> zero-arg callable returning the
#: process-cumulative ``{name: value}`` snapshot for that group.
_TASK_STAT_SOURCES: Dict[str, Callable[[], Mapping[str, int]]] = {}


def register_task_stat_source(
    group: str, source: Callable[[], Mapping[str, int]]
) -> None:
    """Register a process-wide statistic to be sampled around every task.

    ``source()`` must return a cumulative ``{name: value}`` mapping; the
    per-task *delta* rides back to the driver in the payload's
    ``stat_deltas``, which is how worker-process cache statistics become
    visible to the driver's metrics.  Registering the same group again
    replaces the source (idempotent re-imports).
    """
    _TASK_STAT_SOURCES[group] = source


def _stat_snapshot() -> Dict[Tuple[str, str], int]:
    return {
        (group, name): value
        for group, source in _TASK_STAT_SOURCES.items()
        for name, value in source().items()
    }


def _stat_deltas(before: Dict[Tuple[str, str], int]) -> StatDeltas:
    after = _stat_snapshot()
    return tuple(
        (group, name, value - before.get((group, name), 0))
        for (group, name), value in sorted(after.items())
        if value != before.get((group, name), 0)
    )


# ---------------------------------------------------------------------------
# Per-job process-state reset hooks
# ---------------------------------------------------------------------------

#: Callables invoked at the start of every job — in the driver by the
#: engine, and in every parallel worker when it starts.  Used to reset
#: process-global wall-clock caches (the similarity memo) so their
#: ``matcher.*`` counters describe one job instead of leaking across
#: back-to-back runs in the same process.  Virtual time never reads these
#: caches, so resetting them cannot change results.
_JOB_RESET_HOOKS: List[Callable[[], None]] = []


def register_job_reset_hook(hook: Callable[[], None]) -> None:
    """Register ``hook`` to run at every job start (driver and workers).

    Registering the same function again is a no-op (idempotent re-imports).
    """
    if hook not in _JOB_RESET_HOOKS:
        _JOB_RESET_HOOKS.append(hook)


def run_job_reset_hooks() -> None:
    """Run every registered per-job reset hook (engine/worker startup)."""
    for hook in _JOB_RESET_HOOKS:
        hook()


# ---------------------------------------------------------------------------
# Pure per-task computations (shared by every backend)
# ---------------------------------------------------------------------------


def compute_map_task(
    job: MapReduceJob,
    split: Sequence[Any],
    task_id: int,
    cost_model: CostModel,
) -> MapTaskPayload:
    """Run one map task to completion and return its payload."""
    stats_before = _stat_snapshot()
    wall_start = time.perf_counter_ns()
    context = TaskContext(task_id, cost_model, job.config)
    mapper = job.mapper_factory()
    mapper.setup(context)
    for record in split:
        context.charge(cost_model.read_record, "read")
        mapper.map(record, context)
    mapper.cleanup(context)
    emitted = context.emitted
    combine_input = combine_output = 0
    if job.combiner is not None:
        combine_input = len(emitted)
        emitted = _apply_combiner(job, emitted, context)
        combine_output = len(emitted)
    return MapTaskPayload(
        task_id=task_id,
        cost=context.clock.now,
        events=list(context.emitted_events),
        emitted=emitted,
        counters=context.counters,
        num_records=len(split),
        combine_input=combine_input,
        combine_output=combine_output,
        spans=list(context.span_fragments),
        stat_deltas=_stat_deltas(stats_before),
        wall_ns=time.perf_counter_ns() - wall_start,
        charge_profile=tuple(sorted(context.charge_profile.items())),
    )


def _apply_combiner(
    job: MapReduceJob, emitted: List[KeyValue], context: TaskContext
) -> List[KeyValue]:
    """Fold a map task's output through the job's combiner."""
    assert job.combiner is not None
    context.charge(context.cost_model.sort_cost(len(emitted)), "sort")
    groups = group_by_key(emitted)
    combined: List[KeyValue] = []
    for key, values in groups.items():
        for value in job.combiner.combine(key, values):
            combined.append((key, value))
    return combined


def compute_reduce_task(
    job: MapReduceJob,
    items: Sequence[KeyValue],
    task_id: int,
    cost_model: CostModel,
) -> ReduceTaskPayload:
    """Run one reduce task (shuffle charge, sort, reduce calls) and return
    its payload.  Output-file close times stay task-local until the engine
    schedules the task and rebases them."""
    stats_before = _stat_snapshot()
    wall_start = time.perf_counter_ns()
    context = TaskContext(task_id, cost_model, job.config, alpha=job.alpha)
    # Shuffle: pull records in, then sort groups by key.
    context.charge(cost_model.shuffle_record * len(items), "shuffle")
    groups = group_by_key(items)
    keys = list(groups.keys())
    sort_key = job.key_sort
    keys.sort(key=sort_key if sort_key is not None else default_group_key)
    context.charge(cost_model.sort_cost(len(items)), "sort")

    reducer = job.reducer_factory()
    reducer.setup(context)
    for key in keys:
        reducer.reduce(key, groups[key], context)
    reducer.cleanup(context)
    return ReduceTaskPayload(
        task_id=task_id,
        cost=context.clock.now,
        events=list(context.emitted_events),
        written=context.written,
        files=context.finalize_files(),
        counters=context.counters,
        num_groups=len(keys),
        num_records=len(items),
        spans=list(context.span_fragments),
        stat_deltas=_stat_deltas(stats_before),
        wall_ns=time.perf_counter_ns() - wall_start,
        charge_profile=tuple(sorted(context.charge_profile.items())),
    )


def group_by_key(items: Sequence[KeyValue]) -> "dict[Any, List[Any]]":
    """Group shuffled key-value pairs by key, preserving arrival order."""
    groups: dict[Any, List[Any]] = {}
    for key, value in items:
        groups.setdefault(key, []).append(value)
    return groups


def default_group_key(key: Any) -> Any:
    """Default group ordering: natural key order with a repr fallback."""
    return (0, key) if isinstance(key, (int, float)) else (1, repr(key))


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class Executor:
    """Runs the independent per-task computations of one job phase.

    Implementations must return payloads in task-id order and must not
    change the payloads' contents relative to :class:`SerialExecutor` —
    the engine relies on this for cross-backend determinism.

    The engine brackets every job with :meth:`begin_job` / :meth:`end_job`
    (both no-ops by default) so backends can hold per-job resources — the
    parallel backend's worker pool lives exactly that long.  After each
    phase the engine calls :meth:`drain_stats` and surfaces whatever the
    backend measured as ``driver.*`` metrics.
    """

    name: str = "?"

    def begin_job(
        self,
        job: MapReduceJob,
        splits: Sequence[Sequence[Any]],
        cost_model: CostModel,
    ) -> None:
        """Called once before the job's map phase (resources may be lazy)."""

    def end_job(self) -> None:
        """Called once after the job's reduce phase (idempotent)."""

    def drain_stats(self) -> Dict[str, int]:
        """Performance statistics accumulated since the last drain.

        Wall-clock bookkeeping only (pool forks, wire bytes, chunks); the
        engine routes these to the metrics registry, never into job
        counters, so backends stay bit-identical in virtual time.
        """
        return {}

    def run_map_phase(
        self,
        job: MapReduceJob,
        splits: Sequence[Sequence[Any]],
        cost_model: CostModel,
    ) -> List[MapTaskPayload]:
        raise NotImplementedError

    def run_reduce_phase(
        self,
        job: MapReduceJob,
        partitions: Sequence[Sequence[KeyValue]],
        cost_model: CostModel,
    ) -> List[ReduceTaskPayload]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""


class SerialExecutor(Executor):
    """The default backend: every task runs in the driver process."""

    name = "serial"

    def run_map_phase(self, job, splits, cost_model):
        return [
            compute_map_task(job, split, task_id, cost_model)
            for task_id, split in enumerate(splits)
        ]

    def run_reduce_phase(self, job, partitions, cost_model):
        return [
            compute_reduce_task(job, items, task_id, cost_model)
            for task_id, items in enumerate(partitions)
        ]


class _JobState:
    """One job's fork-inherited state, stashed in a module global.

    Workers created while this is the active global inherit it (and
    everything it references — the job's closures, the dataset slices in
    the map splits) copy-on-write.  ``profile_wire`` rides along so workers
    know whether to also measure the plain-pickle baseline.
    """

    __slots__ = ("job", "splits", "cost_model", "profile_wire")

    def __init__(self, job, splits, cost_model, profile_wire) -> None:
        self.job = job
        self.splits = splits
        self.cost_model = cost_model
        self.profile_wire = profile_wire


#: The job currently fanned out; workers inherit it at fork time.
_ACTIVE_JOB: Optional[_JobState] = None


def _require_job() -> _JobState:
    state = _ACTIVE_JOB
    if state is None:  # pragma: no cover - defensive
        raise RuntimeError(
            "worker has no inherited job state; the parallel backend "
            "requires the fork start method"
        )
    return state


def _run_worker_task(state: _JobState, message, input_segments) -> Tuple[bytes, int]:
    """Execute one task message; returns ``(wire blob, raw pickle size)``.

    ``("map", id)`` reads its split from the fork-inherited job state;
    ``("reduce-shm", id, segment, offset, length)`` reads its wire-encoded
    partition out of the named shared-memory segment (attached once per
    worker, cached in ``input_segments``); ``("reduce", id, blob)`` is the
    inline fallback carrying the partition on the queue itself.
    """
    kind = message[0]
    if kind == "map":
        task_id = message[1]
        payload = compute_map_task(
            state.job, state.splits[task_id], task_id, state.cost_model
        )
        blob = wire.encode_map_payload(payload)
    else:
        if kind == "reduce-shm":
            _, task_id, segment_name, offset, length = message
            segment = input_segments.get(segment_name)
            if segment is None:
                segment = _shared_memory.SharedMemory(name=segment_name)
                input_segments[segment_name] = segment
            items = wire.decode_records(bytes(segment.buf[offset : offset + length]))
        else:
            _, task_id, in_blob = message
            items = wire.decode_records(in_blob)
        payload = compute_reduce_task(state.job, items, task_id, state.cost_model)
        blob = wire.encode_reduce_payload(payload)
    raw = wire.raw_pickle_size(payload) if state.profile_wire else 0
    return blob, raw


def _worker_main(
    worker_id: int, task_queue, result_queue, arena_name: Optional[str]
) -> None:
    """Long-lived worker loop: pull a task, run it, post a result descriptor.

    Results land in this worker's append-only shared-memory arena when one
    exists and the blob fits in the remaining space; only the ``(offset,
    length)`` descriptor crosses the results queue.  Oversized blobs (or a
    platform without shared memory) fall back to inline descriptors.  Idle
    nanoseconds spent blocked on the task queue ride home with each result
    so the driver can report queue starvation.

    A ``None`` message is the shutdown sentinel.  The worker never unlinks
    any segment — the driver owns creation and destruction; workers only
    attach and close, which keeps the (process-shared, fork-inherited)
    resource tracker consistent on every CPython we support.
    """
    run_job_reset_hooks()
    state = _require_job()
    arena = None
    if arena_name is not None:
        arena = _shared_memory.SharedMemory(name=arena_name)
    cursor = 0
    input_segments: Dict[str, Any] = {}
    try:
        while True:
            idle_start = time.perf_counter_ns()
            message = task_queue.get()
            idle_ns = time.perf_counter_ns() - idle_start
            if message is None:
                break
            try:
                blob, raw = _run_worker_task(state, message, input_segments)
            except BaseException:
                result_queue.put(
                    ("error", message[1], worker_id, traceback.format_exc())
                )
                continue
            if arena is not None and cursor + len(blob) <= arena.size:
                arena.buf[cursor : cursor + len(blob)] = blob
                result_queue.put(
                    ("shm", message[1], worker_id, cursor, len(blob), raw, idle_ns)
                )
                cursor += len(blob)
            else:
                result_queue.put(
                    ("inline", message[1], worker_id, blob, raw, idle_ns)
                )
    finally:
        for segment in input_segments.values():
            segment.close()
        if arena is not None:
            arena.close()


def _default_workers() -> int:
    """Worker count honoring CPU affinity where the platform exposes it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Phases whose estimated virtual cost falls below this floor run
#: in-process.  Calibrated against the CostModel defaults: dispatching a
#: phase costs ~1 pool round-trip per chunk (hundreds of microseconds),
#: while one virtual cost unit corresponds to one reference-length pair
#: comparison (~10 µs of real work in this simulator), so phases cheaper
#: than a few hundred units lose more to IPC than fan-out can recover.
DEFAULT_SERIAL_FLOOR = 256.0

#: Per-worker result arena size.  Payload blobs for the workloads in this
#: repo total well under a megabyte per job; blobs that do not fit fall
#: back to inline queue messages, so the cap only affects wall-clock.
DEFAULT_ARENA_BYTES = 8 << 20

#: Seconds the driver waits on the results queue before checking whether
#: any worker is still alive (deadlock insurance, not a deadline).
_RESULT_POLL_SECONDS = 60.0


class ParallelExecutor(Executor):
    """Fan each job's tasks out to ``workers`` long-lived forked processes.

    The engine brackets jobs with :meth:`begin_job` / :meth:`end_job`; the
    fork-context workers are spawned lazily on the first phase that clears
    the serial floor and reused for the rest of the job, so a job pays for
    at most one fork generation (``driver.pool_forks`` ≤ jobs).  Map inputs
    reach workers via copy-on-write fork inheritance.  Reduce partitions
    (which only exist in the driver) are wire-encoded into one shared-memory
    segment per phase; workers attach by name and read their slice, so the
    task queue carries only small descriptors.  Result payloads come back
    the same way through per-worker arenas.  Scheduling is pull-based:
    workers take the next task (heaviest reduce unit first) whenever they
    go idle, which is work stealing without any stealing protocol.  The
    engine replays payloads exactly as it would serial ones, so results
    are bit-for-bit identical to :class:`SerialExecutor`.

    Args:
        workers: worker processes (default: visible CPU count).
        serial_floor: phases with estimated virtual cost below this run
            in-process (0 forces fan-out whenever possible).
        profile_wire: also measure the plain-pickle baseline size of every
            payload (``ipc_payload_raw_bytes``) — costs an extra pickle
            pass per task, so benches turn it on and production runs leave
            it off.
        use_shared_memory: move bulk bytes through shared-memory segments
            (default).  Off — or when segment creation fails at runtime —
            every blob travels inline on the queues instead; results are
            identical, only byte counters and wall-clock change.
        arena_bytes: size of each worker's result arena.

    When process parallelism cannot help — no ``fork`` support, a single
    worker, or a phase with fewer than two tasks — tasks run in-process,
    which changes nothing but wall-clock time.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        serial_floor: float = DEFAULT_SERIAL_FLOOR,
        profile_wire: bool = False,
        use_shared_memory: bool = True,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
    ) -> None:
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers if workers is not None else _default_workers()
        self.serial_floor = serial_floor
        self.profile_wire = profile_wire
        self.use_shared_memory = use_shared_memory and _shared_memory is not None
        self.arena_bytes = arena_bytes
        self._can_fork = "fork" in multiprocessing.get_all_start_methods()
        self._procs: List[multiprocessing.Process] = []
        self._task_queue = None
        self._result_queue = None
        self._arenas: List[Optional[Any]] = []
        self._input_segment: Optional[Any] = None
        self._job_state: Optional[_JobState] = None
        self._phase_stats: Dict[str, int] = {}
        #: Cumulative statistics across every job this executor ran
        #: (never drained; benches read this directly).
        self.stats: Dict[str, int] = {}

    # -- job lifecycle -------------------------------------------------

    def begin_job(self, job, splits, cost_model) -> None:
        self.end_job()  # defensive: a crashed previous job left state behind
        self._job_state = _JobState(job, splits, cost_model, self.profile_wire)

    def end_job(self) -> None:
        global _ACTIVE_JOB
        if self._procs:
            for _ in self._procs:
                self._task_queue.put(None)
            for proc in self._procs:
                proc.join(timeout=10.0)
            for proc in self._procs:
                if proc.is_alive():  # pragma: no cover - crashed worker
                    proc.terminate()
                    proc.join(timeout=5.0)
            self._procs = []
        if self._task_queue is not None:
            self._task_queue.close()
            self._result_queue.close()
            self._task_queue = None
            self._result_queue = None
        # Workers have exited (their attachments are closed); now — and
        # only now — the driver destroys the segments it created.
        for arena in self._arenas:
            if arena is not None:
                arena.close()
                arena.unlink()
        self._arenas = []
        self._release_input_segment()
        if _ACTIVE_JOB is self._job_state:
            _ACTIVE_JOB = None
        self._job_state = None

    def close(self) -> None:
        self.end_job()

    def drain_stats(self) -> Dict[str, int]:
        drained = self._phase_stats
        self._phase_stats = {}
        return drained

    def _count(self, name: str, amount: int) -> None:
        self._phase_stats[name] = self._phase_stats.get(name, 0) + amount
        self.stats[name] = self.stats.get(name, 0) + amount

    # -- phase execution -----------------------------------------------

    def run_map_phase(self, job, splits, cost_model):
        state = self._ensure_job(job, splits, cost_model)
        num_tasks = len(splits)
        estimate = cost_model.read_record * sum(len(s) for s in splits)
        if not self._should_fan_out(num_tasks, estimate):
            self._count("tasks_inline", num_tasks)
            return [
                compute_map_task(job, split, task_id, cost_model)
                for task_id, split in enumerate(splits)
            ]
        self._ensure_workers(state)
        self._count("tasks_fanned", num_tasks)
        order = list(range(num_tasks))
        for task_id in order:
            self._dispatch(("map", task_id))
        return self._collect(order, wire.decode_map_payload)

    def run_reduce_phase(self, job, partitions, cost_model):
        state = self._ensure_job(job, None, cost_model)
        num_tasks = len(partitions)
        total_items = sum(len(p) for p in partitions)
        estimate = (
            cost_model.shuffle_record * total_items
            + cost_model.sort_cost(total_items)
        )
        if not self._should_fan_out(num_tasks, estimate):
            self._count("tasks_inline", num_tasks)
            return [
                compute_reduce_task(job, items, task_id, cost_model)
                for task_id, items in enumerate(partitions)
            ]
        self._ensure_workers(state)
        # Enqueue heaviest partitions first: the queue is consumed in
        # order, so on skewed inputs the giant partition (or its balance
        # shards) starts immediately instead of behind light tasks.
        # Payload contents are untouched; re-sorting by task id in
        # ``_collect`` restores the order the engine requires.
        order = sorted(range(num_tasks), key=lambda t: (-len(partitions[t]), t))
        if order != list(range(num_tasks)):
            self._count("reduce_skew_dispatch", 1)
        blobs = {
            task_id: wire.encode_records(partitions[task_id])
            for task_id in order
        }
        segment = self._build_input_segment(blobs, order)
        self._count("tasks_fanned", num_tasks)
        if segment is None:
            for task_id in order:
                self._dispatch(("reduce", task_id, blobs[task_id]))
        else:
            offset = 0
            for task_id in order:
                length = len(blobs[task_id])
                self._dispatch(
                    ("reduce-shm", task_id, segment.name, offset, length)
                )
                offset += length
        payloads = self._collect(order, wire.decode_reduce_payload)
        # All partitions are consumed; drop the input segment before the
        # engine snapshots the phase (workers keep their attachment until
        # job end, which a POSIX unlink happily tolerates).
        self._release_input_segment()
        return payloads

    # -- internals -----------------------------------------------------

    def _ensure_job(self, job, splits, cost_model) -> _JobState:
        """The active job state (tolerates un-bracketed direct phase calls)."""
        state = self._job_state
        if state is None or state.job is not job:
            self.begin_job(job, splits if splits is not None else [], cost_model)
            state = self._job_state
        return state

    def _should_fan_out(self, num_tasks: int, estimated_cost: float) -> bool:
        return (
            self._can_fork
            and self.workers >= 2
            and num_tasks >= 2
            and estimated_cost >= self.serial_floor
        )

    def _ensure_workers(self, state: _JobState) -> None:
        """Spawn the job's workers on first use with ``state`` inheritable."""
        if self._procs:
            return
        global _ACTIVE_JOB
        _ACTIVE_JOB = state
        context = multiprocessing.get_context("fork")
        self._task_queue = context.Queue()
        self._result_queue = context.Queue()
        self._arenas = [self._create_segment(self.arena_bytes) for _ in range(self.workers)]
        for worker_id in range(self.workers):
            arena = self._arenas[worker_id]
            proc = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self._task_queue,
                    self._result_queue,
                    arena.name if arena is not None else None,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        self._count("pool_forks", 1)

    def _create_segment(self, size: int):
        """A fresh driver-owned shared-memory segment, or None (fallback)."""
        if not self.use_shared_memory or size <= 0:
            return None
        try:
            segment = _shared_memory.SharedMemory(create=True, size=size)
        except OSError:  # pragma: no cover - no usable /dev/shm
            return None
        self._count("shm_segments", 1)
        return segment

    def _build_input_segment(self, blobs: Dict[int, bytes], order: List[int]):
        """One segment holding every reduce partition blob, in queue order."""
        total = sum(len(blobs[task_id]) for task_id in order)
        segment = self._create_segment(total)
        if segment is None:
            return None
        offset = 0
        for task_id in order:
            blob = blobs[task_id]
            segment.buf[offset : offset + len(blob)] = blob
            offset += len(blob)
        self._count("shm_input_bytes", total)
        self._input_segment = segment
        return segment

    def _release_input_segment(self) -> None:
        if self._input_segment is not None:
            self._input_segment.close()
            self._input_segment.unlink()
            self._input_segment = None

    def _dispatch(self, message) -> None:
        """Enqueue one task message, counting its descriptor bytes."""
        size = len(pickle.dumps(message))
        self._count("ipc_input_bytes", size)
        self._count("ipc_bytes", size)
        self._task_queue.put(message)

    def _next_result(self):
        while True:
            try:
                return self._result_queue.get(timeout=_RESULT_POLL_SECONDS)
            except queue_module.Empty:  # pragma: no cover - crashed workers
                if not any(proc.is_alive() for proc in self._procs):
                    raise RuntimeError(
                        "all parallel workers exited without delivering results"
                    ) from None

    def _collect(self, order: List[int], decode):
        """Receive one result per dispatched task; payloads in task-id order.

        ``steal_tasks`` counts tasks whose executing worker differs from
        the one a static round-robin over the dispatch order would have
        used — the work the pull queue moved to whoever was free.
        """
        workers = max(1, len(self._procs))
        intended = {task_id: pos % workers for pos, task_id in enumerate(order)}
        payloads = []
        for _ in order:
            result = self._next_result()
            kind = result[0]
            if kind == "error":
                _, task_id, worker_id, trace = result
                raise RuntimeError(
                    f"parallel worker {worker_id} failed on task {task_id}:\n{trace}"
                )
            if kind == "shm":
                _, task_id, worker_id, offset, length, raw, idle_ns = result
                arena = self._arenas[worker_id]
                blob = bytes(arena.buf[offset : offset + length])
                self._count("shm_payload_bytes", length)
            else:
                _, task_id, worker_id, blob, raw, idle_ns = result
            descriptor = len(pickle.dumps(result))
            self._count("ipc_payload_bytes", descriptor)
            self._count("ipc_bytes", descriptor)
            self._count("payload_wire_bytes", len(blob))
            if raw:
                self._count("ipc_payload_raw_bytes", raw)
            if worker_id != intended[task_id]:
                self._count("steal_tasks", 1)
            self._count("worker_idle_ms", idle_ns // 1_000_000)
            payloads.append(decode(blob))
        payloads.sort(key=lambda p: p.task_id)
        return payloads


#: Recognised backend names for :func:`make_executor` / the CLI.
BACKENDS = ("serial", "process")


def make_executor(
    backend: str = "serial",
    workers: Optional[int] = None,
    *,
    profile_wire: bool = False,
    use_shared_memory: bool = True,
) -> Executor:
    """Build an executor from a CLI-style backend name.

    ``profile_wire`` (process backend only) additionally measures the
    plain-pickle baseline size of every payload for perf reporting;
    ``use_shared_memory=False`` forces the inline-queue transport.
    """
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ParallelExecutor(
            workers, profile_wire=profile_wire, use_shared_memory=use_shared_memory
        )
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


__all__ = [
    "MapTaskPayload",
    "ReduceTaskPayload",
    "StatDeltas",
    "register_task_stat_source",
    "register_job_reset_hook",
    "run_job_reset_hooks",
    "compute_map_task",
    "compute_reduce_task",
    "group_by_key",
    "default_group_key",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "DEFAULT_SERIAL_FLOOR",
    "DEFAULT_ARENA_BYTES",
    "BACKENDS",
    "make_executor",
]
