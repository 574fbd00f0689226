"""Tests for the engine's combiner support, failure injection, and the
task scheduler's cost validation."""

import math

import pytest

from repro.mapreduce import (
    Cluster,
    Combiner,
    FaultPlan,
    FaultScheduler,
    MapReduceJob,
    Mapper,
    Reducer,
    RetryPolicy,
)

from scheduling_reference import plan_with_failures


class _WordMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(1.0)
        context.write((key, sum(values)))


class _SumCombiner(Combiner):
    def combine(self, key, values):
        return [sum(values)]


def _job(combiner=None):
    return MapReduceJob(
        _WordMapper, _SumReducer, combiner=combiner, name="wordcount"
    )


class TestCombiner:
    def test_results_unchanged(self):
        lines = ["a b a a", "b c a", "a a"] * 4
        plain = Cluster(2).run_job(_job(), lines)
        combined = Cluster(2).run_job(_job(_SumCombiner()), lines)
        assert sorted(plain.output) == sorted(combined.output)

    def test_shuffle_volume_reduced(self):
        lines = ["a a a a a a a a"] * 8
        plain = Cluster(2).run_job(_job(), lines)
        combined = Cluster(2).run_job(_job(_SumCombiner()), lines)
        assert combined.counters.get("engine", "map_emitted") < plain.counters.get(
            "engine", "map_emitted"
        )
        assert combined.counters.get(
            "engine", "combine_output"
        ) < combined.counters.get("engine", "combine_input")

    def test_combiner_may_expand_values(self):
        class Splitter(Combiner):
            def combine(self, key, values):
                return [sum(values), 0]  # associative: the 0s are harmless

        lines = ["x x", "x"]
        result = Cluster(1).run_job(_job(Splitter()), lines)
        assert dict(result.output) == {"x": 3}


def _scheduler(num_slots, ready_time):
    return FaultScheduler(FaultPlan(), num_slots, ready_time, job="j", phase="map")


class TestSlotPoolCostGuard:
    """`FaultScheduler.run` — the slot placement of every phase — validates
    cost: zero is a legitimate empty-split task, but negative and
    non-finite costs are scheduling-model bugs that would otherwise
    produce silently corrupt timelines."""

    @pytest.mark.parametrize("cost", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_negative_and_nonfinite_cost(self, cost):
        with pytest.raises(ValueError, match="task cost must be finite and >= 0"):
            _scheduler(2, 0.0).run([1.0, cost])

    def test_zero_cost_task_is_a_zero_length_attempt(self):
        """Empty input splits produce zero-cost map tasks (like Hadoop on
        an empty split): they occupy a placement but no time."""
        scheduler = _scheduler(1, 3.0)
        (sched,) = scheduler.run([0.0])
        win = sched.winning
        assert (win.start, win.end, win.slot) == (3.0, 3.0, 0)
        assert scheduler.final_free_times == [3.0]

    def test_rejected_cost_leaves_pool_state_intact(self):
        scheduler = _scheduler(1, 0.0)
        with pytest.raises(ValueError):
            scheduler.run([5.0, float("nan")])
        # Costs are checked before anything is placed: the valid task
        # ahead of the bad one must not have consumed the slot.
        assert scheduler.final_free_times == [0.0]
        (sched,) = scheduler.run([2.0])
        win = sched.winning
        assert (win.start, win.end, win.slot) == (0.0, 2.0, 0)

    def test_empty_input_job_still_runs(self):
        """End to end: an empty input yields zero-cost map tasks, which the
        guard must keep accepting."""
        result = Cluster(2).run_job(_job(), [])
        assert result.output == []
        assert result.end_time == 0.0

    def test_math_isfinite_contract(self):
        # The guard uses math.isfinite: document the accepted domain.
        assert math.isfinite(0.0) and math.isfinite(1e300)
        (sched,) = _scheduler(1, 0.0).run([1e300])
        assert sched.winning.slot == 0


class TestFailureInjection:
    """Seeded crashes (:class:`FaultPlan`) re-execute tasks: the timeline
    stretches, the computed results do not change."""

    def test_output_identical_under_failures(self):
        lines = ["a b", "b c", "c d"]
        plan = plan_with_failures(
            "wordcount", map_crashes=[2, 0, 0, 0], reduce_crashes=[0, 1, 0, 0]
        )
        clean = Cluster(2).run_job(_job(), lines)
        failed = Cluster(2, faults=plan).run_job(_job(), lines)
        assert sum(t.num_failed_attempts for t in failed.map_tasks) == 2
        assert sum(t.num_failed_attempts for t in failed.reduce_tasks) == 1
        assert sorted(clean.output) == sorted(failed.output)
        assert sorted(
            (e.kind, e.payload) for e in clean.events
        ) == sorted((e.kind, e.payload) for e in failed.events)

    def test_failures_stretch_the_timeline(self):
        lines = [f"w{i}" for i in range(8)]
        plan = plan_with_failures(
            "wordcount", map_crashes=[3, 0], reduce_crashes=[0, 0]
        )
        clean = Cluster(1).run_job(_job(), lines)
        failed = Cluster(1, faults=plan).run_job(_job(), lines)
        assert failed.end_time > clean.end_time

    def test_retries_counted(self):
        plan = plan_with_failures(
            "wordcount", map_crashes=[2, 0], reduce_crashes=[1, 0]
        )
        result = Cluster(1, faults=plan).run_job(_job(), ["a b"])
        assert result.counters.get("engine", "map_retries") == 2
        assert result.counters.get("engine", "reduce_retries") == 1

    def test_reduce_failure_delays_events_and_files(self):
        class EventReducer(Reducer):
            def reduce(self, key, values, context):
                context.charge(5.0)
                context.record_event("tick", key)
                context.write(key)

        job = MapReduceJob(_WordMapper, EventReducer, alpha=2.0)
        clean = Cluster(1).run_job(job, ["a"], num_reduce_tasks=1)
        job2 = MapReduceJob(_WordMapper, EventReducer, alpha=2.0)
        plan = plan_with_failures(job2.name, map_crashes=[0, 0], reduce_crashes=[1])
        failed = Cluster(1, faults=plan).run_job(job2, ["a"], num_reduce_tasks=1)
        clean_event = [e for e in clean.events if e.kind == "tick"][0]
        failed_event = [e for e in failed.events if e.kind == "tick"][0]
        assert failed_event.time > clean_event.time
        assert min(f.close_time for f in failed.output_files) > min(
            f.close_time for f in clean.output_files
        )

    def test_end_to_end_recall_survives_failures(
        self, citeseer_small, citeseer_cfg
    ):
        """The progressive pipeline is failure-oblivious: re-executed
        tasks reproduce exactly the same duplicates, later."""
        from repro.core.driver import ProgressiveER

        clean = ProgressiveER(citeseer_cfg, Cluster(2)).run(citeseer_small)
        assert clean.found_pairs  # sanity
        plan = FaultPlan(seed=3, fault_rate=0.3, retry=RetryPolicy(max_attempts=50))
        failed = ProgressiveER(citeseer_cfg, Cluster(2, faults=plan)).run(
            citeseer_small
        )
        retries = failed.job2.counters.get("engine", "reduce_retries")
        assert retries > 0, "rate 0.3 must crash some reduce attempt"
        assert failed.found_pairs == clean.found_pairs
        assert failed.job2.end_time > clean.job2.end_time
