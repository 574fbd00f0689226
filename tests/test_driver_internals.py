"""White-box tests of Job-2 driver internals: tree chains with splits,
event deduplication, and cost-factor sampling."""

import pytest

from repro.core.driver import ProgressiveER, ResolutionMapper, _first_discoveries
from repro.mapreduce import Cluster
from repro.mapreduce.types import Event


class TestFirstDiscoveries:
    def test_keeps_earliest_per_pair(self):
        events = [
            Event(time=5.0, kind="duplicate", payload=(1, 2)),
            Event(time=2.0, kind="duplicate", payload=(1, 2)),
            Event(time=3.0, kind="duplicate", payload=(3, 4)),
            Event(time=9.0, kind="other", payload=(5, 6)),
        ]
        kept = _first_discoveries(events)
        assert [(e.time, e.payload) for e in kept] == [(2.0, (1, 2)), (3.0, (3, 4))]

    def test_empty(self):
        assert _first_discoveries([]) == []


class TestCostFactorSampling:
    def test_reasonable_range(self, citeseer_small, citeseer_cfg):
        er = ProgressiveER(citeseer_cfg, Cluster(1))
        factor = er._average_cost_factor(citeseer_small)
        assert 0.2 <= factor <= 10.0

    def test_deterministic_per_seed(self, citeseer_small, citeseer_cfg):
        a = ProgressiveER(citeseer_cfg, Cluster(1), seed=3)
        b = ProgressiveER(citeseer_cfg, Cluster(1), seed=3)
        assert a._average_cost_factor(citeseer_small) == b._average_cost_factor(
            citeseer_small
        )

    def test_tiny_dataset_falls_back(self, citeseer_cfg):
        from repro.data import Dataset, Entity

        er = ProgressiveER(citeseer_cfg, Cluster(1))
        ds = Dataset(entities=[Entity(id=0, attrs={})])
        assert er._average_cost_factor(ds) == 1.0


class TestSplitTreeRouting:
    def test_entities_routed_to_split_trees(
        self, citeseer_medium, citeseer_medium_cfg
    ):
        """When the schedule splits a sub-tree off, the mapper must emit
        the sub-tree's entities to it (with the (n+1)-st dominance entry
        on the parent-tree emission)."""
        config = citeseer_medium_cfg
        result = ProgressiveER(config, Cluster(10)).run(citeseer_medium)
        schedule = result.schedule
        split_trees = [
            uid for family in schedule.split_roots.values() for _, _, uid in family
        ]
        if not split_trees:
            pytest.skip("no tree was split at this scale")
        # Every split tree must have received routed entities: its blocks
        # were resolved, so its root block appears in some task's order and
        # produced comparisons or at least got members.
        n = config.scheme.num_families
        routed_to_split = set()
        long_lists = 0
        for task in result.job2.map_tasks:
            for key, (entity, dom_list) in task.output:
                if key in split_trees:
                    routed_to_split.add(key)
                if len(dom_list) > n:
                    long_lists += 1
        assert routed_to_split == set(split_trees)
        assert long_lists > 0, "parent-tree emissions must carry split entries"

    def test_split_entries_reference_real_trees(
        self, citeseer_medium, citeseer_medium_cfg
    ):
        config = citeseer_medium_cfg
        result = ProgressiveER(config, Cluster(10)).run(citeseer_medium)
        schedule = result.schedule
        doms = set(schedule.dominance.values())
        n = config.scheme.num_families
        for task in result.job2.map_tasks:
            for _, (entity, dom_list) in task.output:
                if len(dom_list) > n:
                    assert dom_list[n] in doms
