"""Edge-case tests across modules: tiny inputs, degenerate configurations,
boundary conditions the happy-path tests never touch."""

import pytest

from repro.blocking import (
    Block,
    BlockingScheme,
    build_forest,
    citeseer_scheme,
    prefix_function,
)
from repro.core import ProgressiveER, citeseer_config
from repro.data import Dataset, Entity, make_citeseer
from repro.evaluation import recall_curve
from repro.mapreduce import Cluster, CostModel, MapReduceJob, Mapper, Reducer
from repro.mechanisms import PSNM, SortedNeighborHint, resolve_block
from repro.similarity import citeseer_matcher


class _Echo(Mapper):
    def map(self, record, context):
        context.emit(record, record)


class _Collect(Reducer):
    def reduce(self, key, values, context):
        context.write((key, len(values)))


class TestEngineEdges:
    def test_empty_input(self):
        result = Cluster(2).run_job(MapReduceJob(_Echo, _Collect), [])
        assert result.output == []
        assert result.end_time >= result.start_time

    def test_single_record(self):
        result = Cluster(3).run_job(MapReduceJob(_Echo, _Collect), ["only"])
        assert result.output == [("only", 1)]

    def test_explicit_map_task_override(self):
        result = Cluster(1).run_job(
            MapReduceJob(_Echo, _Collect), list("abcdef"), num_map_tasks=3
        )
        assert len(result.map_tasks) == 3

    def test_one_reduce_task(self):
        result = Cluster(2).run_job(
            MapReduceJob(_Echo, _Collect), list("abc"), num_reduce_tasks=1
        )
        assert len(result.reduce_tasks) == 1
        assert len(result.output) == 3

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestMechanismEdges:
    def test_empty_block(self):
        stats = resolve_block(
            [],
            PSNM(),
            window=5,
            sort_key=lambda e: e.get("v"),
            matcher=citeseer_matcher(),
            cost_model=CostModel(),
            charge=lambda c: None,
            on_duplicate=lambda a, b: None,
        )
        assert stats.comparisons == 0
        assert stats.exhausted

    def test_window_of_one_compares_nothing(self):
        entities = [Entity(id=i, attrs={"v": str(i)}) for i in range(5)]
        stats = resolve_block(
            entities,
            SortedNeighborHint(),
            window=1,
            sort_key=lambda e: e.get("v"),
            matcher=citeseer_matcher(),
            cost_model=CostModel(),
            charge=lambda c: None,
            on_duplicate=lambda a, b: None,
        )
        assert stats.comparisons == 0


class TestBlockingEdges:
    def test_empty_dataset_forest(self):
        ds = Dataset(entities=[])
        forest = build_forest(ds, citeseer_scheme(), "X")
        assert forest.roots == []

    def test_all_entities_missing_attribute(self):
        ds = Dataset(entities=[Entity(id=i, attrs={"other": "x"}) for i in range(4)])
        forest = build_forest(ds, citeseer_scheme(), "X")
        assert forest.roots == []

    def test_single_family_scheme(self):
        scheme = BlockingScheme(
            families={"X": [prefix_function("X", 1, "title", 2)]}
        )
        assert scheme.num_families == 1
        assert scheme.depth("X") == 0


class TestPipelineEdges:
    def test_tiny_dataset_runs(self):
        ds = make_citeseer(20, seed=1)
        config = citeseer_config(
            matcher=citeseer_matcher(), train_fraction=1.0
        )
        result = ProgressiveER(config, Cluster(1)).run(ds)
        assert result.total_time > 0

    def test_dataset_without_duplicates(self):
        ds = make_citeseer(60, seed=2, duplicate_ratio=0.0)
        config = citeseer_config(
            matcher=citeseer_matcher(), train_fraction=1.0
        )
        result = ProgressiveER(config, Cluster(1)).run(ds)
        # No true pairs: everything reported (if anything) is a false
        # positive; the pipeline must still terminate cleanly.
        assert result.total_time > 0

    def test_single_machine(self, citeseer_small, citeseer_cfg):
        result = ProgressiveER(citeseer_cfg, Cluster(1)).run(citeseer_small)
        curve = recall_curve(
            result.duplicate_events, citeseer_small, end_time=result.total_time
        )
        assert curve.final_recall > 0.7

    def test_more_reduce_tasks_than_trees_possible(self):
        ds = make_citeseer(40, seed=4)
        config = citeseer_config(
            matcher=citeseer_matcher(), train_fraction=1.0
        )
        # 10 machines = 20 reduce tasks for a ~handful of trees.
        result = ProgressiveER(config, Cluster(10)).run(ds)
        assert result.total_time > 0


class TestCurveEdges:
    def test_empty_event_stream(self):
        ds = make_citeseer(30, seed=1)
        curve = recall_curve([], ds, end_time=10.0)
        assert curve.final_recall == 0.0
        assert curve.recall_at(5.0) == 0.0
        assert curve.time_to(0.5) is None
        assert curve.area_under() == 0.0

    def test_zero_horizon_area(self):
        ds = make_citeseer(30, seed=1)
        curve = recall_curve([], ds, end_time=0.0)
        assert curve.area_under(0.0) == 0.0


class TestBlockEdges:
    def test_size_override_validation(self):
        with pytest.raises(ValueError):
            Block(family="X", level=1, key="a", entity_ids=(), size_override=-1)

    def test_root_of_detached_chain(self):
        a = Block(family="X", level=1, key="a", entity_ids=(), size_override=4)
        b = Block(family="X", level=2, key="ab", entity_ids=(), size_override=2)
        a.add_child(b)
        a.detach_child(b)
        assert b.root is b
        assert list(a.descendants()) == []
