"""Tests for the multi-pass MR Sorted-Neighborhood baseline."""

import pytest

from repro.baselines import MrsnConfig, MultiPassMRSN
from repro.blocking import citeseer_scheme
from repro.mapreduce import Cluster
from repro.evaluation import recall_curve


@pytest.fixture(scope="module")
def mrsn_runs(request):
    dataset = request.getfixturevalue("citeseer_small")
    matcher = request.getfixturevalue("shared_citeseer_matcher")
    config = MrsnConfig(scheme=citeseer_scheme(), matcher=matcher, window=15)
    return dataset, {
        machines: MultiPassMRSN(config, Cluster(machines)).run(dataset)
        for machines in (1, 3)
    }


class TestCorrectness:
    def test_results_invariant_to_partitioning(self, mrsn_runs):
        """RepSN's boundary replication: the pair set must not depend on
        how many reduce tasks split the sorted order."""
        _, runs = mrsn_runs
        assert runs[1].found_pairs == runs[3].found_pairs

    def test_finds_most_duplicates(self, mrsn_runs):
        dataset, runs = mrsn_runs
        recall = len(runs[3].found_pairs & dataset.true_pairs) / dataset.num_true_pairs
        assert recall > 0.8

    def test_one_job_per_family(self, mrsn_runs):
        _, runs = mrsn_runs
        assert len(runs[3].jobs) == 3  # X, Y, Z passes

    def test_passes_run_sequentially(self, mrsn_runs):
        _, runs = mrsn_runs
        jobs = runs[3].jobs
        for earlier, later in zip(jobs, jobs[1:]):
            assert later.start_time == earlier.end_time

    def test_events_deduplicated(self, mrsn_runs):
        _, runs = mrsn_runs
        pairs = [e.payload for e in runs[3].duplicate_events]
        assert len(pairs) == len(set(pairs))

    def test_high_precision(self, mrsn_runs):
        dataset, runs = mrsn_runs
        found = runs[3].found_pairs
        assert len(found & dataset.true_pairs) / len(found) > 0.9


class TestScaling:
    def test_more_machines_not_slower(self, citeseer_small, shared_citeseer_matcher):
        config = MrsnConfig(
            scheme=citeseer_scheme(), matcher=shared_citeseer_matcher, window=10
        )
        slow = MultiPassMRSN(config, Cluster(1)).run(citeseer_small)
        fast = MultiPassMRSN(config, Cluster(6)).run(citeseer_small)
        assert fast.total_time <= slow.total_time

    def test_progressive_approach_beats_mrsn_early(
        self, citeseer_medium, shared_citeseer_medium_matcher
    ):
        """The related-work claim (Section VII): fixed parallel SN has no
        prioritization; our approach finds duplicates at a higher early
        rate even though MRSN's final recall can be competitive."""
        from repro.core import ProgressiveER, citeseer_config

        config = MrsnConfig(
            scheme=citeseer_scheme(), matcher=shared_citeseer_medium_matcher,
            window=15,
        )
        mrsn = MultiPassMRSN(config, Cluster(4)).run(citeseer_medium)
        ours = ProgressiveER(
            citeseer_config(matcher=shared_citeseer_medium_matcher), Cluster(4)
        ).run(citeseer_medium)

        mrsn_curve = recall_curve(
            mrsn.duplicate_events, citeseer_medium, end_time=mrsn.total_time
        )
        ours_curve = recall_curve(
            ours.duplicate_events, citeseer_medium, end_time=ours.total_time
        )
        horizon = min(mrsn.total_time, ours.total_time)
        quarter = horizon * 0.25
        assert ours_curve.recall_at(quarter) > mrsn_curve.recall_at(quarter)
        # ... and in aggregate progressiveness over the common horizon.
        assert ours_curve.area_under(horizon) > mrsn_curve.area_under(horizon)
