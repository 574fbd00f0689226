"""The engine's one task scheduler, end to end.

Every phase :class:`~repro.mapreduce.engine.Cluster` runs is placed by
:class:`~repro.mapreduce.faults.FaultScheduler` — under the cluster's
:class:`~repro.mapreduce.faults.FaultPlan`, or an inert ``FaultPlan()``
when there is none.  These tests pin what that single path owes every
caller:

* a task whose virtual cost is not finite and non-negative fails the job
  with one typed error, with or without a plan;
* seeded crashes stretch the timeline — the task, the reduce barrier
  behind it, its retry counters and its trace spans — without changing
  what the job computes.
"""

from __future__ import annotations

import pytest

from repro.mapreduce import Cluster, FaultPlan, MapReduceJob, Mapper, Reducer
from repro.observability import Tracer

from scheduling_reference import plan_with_failures


class _Identity(Mapper):
    def map(self, record, context):
        context.emit(record, 1)


class _Count(Reducer):
    def reduce(self, key, values, context):
        context.charge(1.0)
        context.write((key, len(values)))


def _job(name):
    return MapReduceJob(_Identity, _Count, name=name)


def _crash_spans(plan, job, phase, task, crashes, cost):
    """Virtual time the first ``crashes`` attempts of a task burn on a
    healthy slot."""
    return sum(
        cost * plan.crash_fraction(job, phase, task, attempt)
        for attempt in range(crashes)
    )


class TestNonFiniteCost:
    """`VirtualClock.charge` only rejects negative units, so a NaN or inf
    charge reaches scheduling; the scheduler must turn it into a typed
    error on every path instead of building an infinite timeline."""

    PLANS = {
        "no-plan": None,
        "inert": FaultPlan(),
        "slow-slot": FaultPlan(slot_slowdowns={0: 2.0}),
    }

    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("cost", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_run_job_rejects_nonfinite_task_cost(self, plan, cost):
        class Charge(Reducer):
            def reduce(self, key, values, context):
                context.charge(cost)
                context.write(key)

        job = MapReduceJob(_Identity, Charge, name="bad-cost")
        with pytest.raises(ValueError, match="task cost must be finite and >= 0"):
            Cluster(1, faults=self.PLANS[plan]).run_job(job, ["a"])


class TestCrashRetries:
    def test_crashes_stretch_the_task_by_their_spans(self):
        plan = plan_with_failures("stretch", map_crashes=[2], reduce_crashes=[0, 0])
        cluster = Cluster(1, map_slots=1)
        clean = cluster.run_job(_job("stretch"), ["a", "b"], num_map_tasks=1)
        failed = cluster.run_job(
            _job("stretch"), ["a", "b"], num_map_tasks=1, faults=plan
        )
        clean_task, failed_task = clean.map_tasks[0], failed.map_tasks[0]
        burned = _crash_spans(plan, "stretch", "map", 0, 2, clean_task.cost)
        assert 0 < burned < 2 * clean_task.cost
        assert failed_task.start_time == clean_task.start_time
        assert failed_task.end_time == pytest.approx(clean_task.end_time + burned)
        assert failed_task.num_failed_attempts == 2
        assert not failed_task.speculative
        assert failed.output == clean.output

    def test_reduce_phase_waits_for_stretched_map(self):
        plan = plan_with_failures("barrier", map_crashes=[1], reduce_crashes=[0, 0])
        clean = Cluster(1).run_job(_job("barrier"), ["a", "b"], num_map_tasks=1)
        failed = Cluster(1, faults=plan).run_job(
            _job("barrier"), ["a", "b"], num_map_tasks=1
        )
        shift = _crash_spans(plan, "barrier", "map", 0, 1, clean.map_tasks[0].cost)
        assert shift > 0
        assert failed.map_phase_end == pytest.approx(clean.map_phase_end + shift)
        # The reduce barrier moves with the map phase.
        for clean_t, failed_t in zip(clean.reduce_tasks, failed.reduce_tasks):
            assert failed_t.start_time == pytest.approx(clean_t.start_time + shift)

    def test_retry_counters_match_injection(self):
        plan = plan_with_failures("retries", map_crashes=[2, 1], reduce_crashes=[3, 0])
        result = Cluster(1, faults=plan).run_job(_job("retries"), ["a", "b", "c"])
        assert result.counters.get("engine", "map_retries") == 3
        assert result.counters.get("engine", "reduce_retries") == 3
        assert result.counters.get("fault", "map_failed_attempts") == 3
        assert result.counters.get("fault", "reduce_failed_attempts") == 3

    def test_failed_attempt_count_lands_on_task_results(self):
        plan = plan_with_failures("counts", map_crashes=[0, 2], reduce_crashes=[1, 0])
        result = Cluster(1, faults=plan).run_job(_job("counts"), ["a", "b", "c"])
        assert [t.num_failed_attempts for t in result.map_tasks] == [0, 2]
        assert [t.num_failed_attempts for t in result.reduce_tasks] == [1, 0]

    def test_attempt_spans_tile_the_task_slot(self):
        plan = plan_with_failures("spans", map_crashes=[2], reduce_crashes=[0, 0])
        tracer = Tracer()
        Cluster(1, map_slots=1, tracer=tracer, faults=plan).run_job(
            _job("spans"), ["a", "b"], num_map_tasks=1
        )
        attempts = sorted(
            (s for s in tracer.spans if s.category == "attempt"),
            key=lambda s: s.start,
        )
        task = next(
            s
            for s in tracer.spans
            if s.category == "task" and s.arg("phase") == "map"
        )
        assert len(attempts) == 2
        assert all(s.arg("failed") for s in attempts)
        # Back-to-back on the only slot, ending where the success begins.
        assert attempts[0].end == attempts[1].start
        assert attempts[1].end == task.start
        assert {s.track for s in attempts} == {task.track}
        assert [s.name for s in attempts] == [
            "map-0/attempt-0",
            "map-0/attempt-1",
        ]
        assert task.arg("attempt") == 2
