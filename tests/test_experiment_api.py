"""Tests for the unified run API: RunSpec / ExperimentRun / RunResult,
plus construction-time spec validation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.evaluation import ExperimentRun, RunResult, RunSpec
from repro.evaluation.experiment import PAPER_MAP_SLOTS, PAPER_REDUCE_SLOTS
from repro.mapreduce import FaultPlan, SerialExecutor


class TestRunSpec:
    def test_approach_inferred_from_config_type(self, citeseer_cfg, basic_cfg):
        assert not RunSpec(None, citeseer_cfg).is_basic
        assert RunSpec(None, basic_cfg).is_basic

    def test_progressive_label_derived_from_strategy(self, citeseer_cfg):
        assert RunSpec(None, citeseer_cfg).resolved_label() == "ours[ours]"
        assert RunSpec(None, citeseer_cfg, strategy="lpt").resolved_label() == "ours[lpt]"

    def test_basic_label_encodes_popcorn_threshold(self, basic_cfg):
        assert RunSpec(None, basic_cfg).resolved_label() == "basic[F]"

    def test_explicit_label_wins(self, citeseer_cfg):
        spec = RunSpec(None, citeseer_cfg, label="fig8")
        assert spec.resolved_label() == "fig8"

    def test_with_label_copies(self, citeseer_cfg):
        spec = RunSpec(None, citeseer_cfg, machines=7)
        relabeled = spec.with_label("other")
        assert relabeled.label == "other"
        assert relabeled.machines == 7
        assert spec.label is None  # original untouched


class TestExperimentRun:
    def test_cluster_is_paper_shaped(self, citeseer_small, citeseer_cfg):
        experiment = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=4))
        cluster = experiment.cluster
        assert cluster.machines == 4
        assert cluster.map_slots == PAPER_MAP_SLOTS
        assert cluster.reduce_slots == PAPER_REDUCE_SLOTS

    def test_backend_name_builds_executor(self, citeseer_small, citeseer_cfg):
        experiment = ExperimentRun(
            RunSpec(citeseer_small, citeseer_cfg, backend="process", workers=2)
        )
        assert experiment.cluster.executor.name == "process"
        assert experiment.cluster.executor.workers == 2

    def test_explicit_executor_wins_over_backend(self, citeseer_small, citeseer_cfg):
        experiment = ExperimentRun(
            RunSpec(
                citeseer_small, citeseer_cfg,
                backend="process", executor=SerialExecutor(),
            )
        )
        assert experiment.cluster.executor.name == "serial"

    def test_progressive_run_result_shape(self, citeseer_small, citeseer_cfg):
        run = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=3)).run()
        assert isinstance(run, RunResult)
        assert run.label == "ours[ours]"
        assert run.spec.machines == 3
        assert run.total_time == run.result.total_time
        assert run.final_recall == run.curve.final_recall
        assert run.final_recall > 0.8
        assert run.duplicate_events is run.result.duplicate_events

    def test_basic_run_result_shape(self, citeseer_small, basic_cfg):
        run = ExperimentRun(RunSpec(citeseer_small, basic_cfg, machines=3)).run()
        assert run.label == "basic[F]"
        assert run.total_time == run.result.job.end_time
        assert run.final_recall > 0.8

    def test_seed_flows_through(self, citeseer_small, citeseer_cfg):
        a = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2, seed=5)).run()
        b = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2, seed=5)).run()
        assert [(e.time, e.payload) for e in a.duplicate_events] == [
            (e.time, e.payload) for e in b.duplicate_events
        ]


class TestFoundPairsCaching:
    """found_pairs is derived from the event log — compute it once."""

    def test_run_result_caches(self, citeseer_small, citeseer_cfg):
        run = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2)).run()
        assert run.found_pairs is run.found_pairs

    def test_progressive_result_caches(self, citeseer_small, citeseer_cfg):
        run = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2)).run()
        assert run.result.found_pairs is run.result.found_pairs

    def test_basic_result_caches(self, citeseer_small, basic_cfg):
        run = ExperimentRun(RunSpec(citeseer_small, basic_cfg, machines=2)).run()
        assert run.result.found_pairs is run.result.found_pairs


class TestDeprecatedWrappersRemoved:
    """The pre-RunSpec helpers were deleted after their deprecation cycle."""

    def test_wrappers_are_gone(self):
        import repro
        import repro.evaluation
        import repro.evaluation.experiment as experiment

        for module in (repro, repro.evaluation, experiment):
            for name in ("make_cluster", "run_progressive", "run_basic"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert name not in getattr(module, "__all__", ())


class TestRunSpecValidation:
    """Incoherent specs fail at construction with actionable messages."""

    def test_valid_spec_passes_and_chains(self, citeseer_cfg):
        spec = RunSpec(None, citeseer_cfg, machines=3, balance="blocksplit")
        assert spec.validate() is spec

    def test_unknown_balance_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="balance.*'roundrobin'.*slack"):
            RunSpec(None, citeseer_cfg, balance="roundrobin")

    def test_unknown_strategy_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="strategy 'greedy'"):
            RunSpec(None, citeseer_cfg, strategy="greedy")

    def test_unknown_backend_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="backend 'threads'"):
            RunSpec(None, citeseer_cfg, backend="threads")

    def test_nonpositive_workers_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="workers must be a positive"):
            RunSpec(None, citeseer_cfg, backend="process", workers=0)

    def test_nonpositive_machines_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="machines must be a positive"):
            RunSpec(None, citeseer_cfg, machines=0)

    def test_wrong_config_type_rejected(self, citeseer_small):
        with pytest.raises(ValueError, match="config must be an ApproachConfig"):
            RunSpec(citeseer_small, {"scheme": None})

    def test_wrong_faults_type_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="faults must be a FaultPlan"):
            RunSpec(None, citeseer_cfg, faults="chaos")
        RunSpec(None, citeseer_cfg, faults=FaultPlan(seed=0))  # real plan OK

    def test_blocksplit_needs_tree_routing(self, citeseer_cfg):
        block_routed = dataclasses.replace(citeseer_cfg, routing="block")
        with pytest.raises(ValueError, match="blocksplit.*tree routing"):
            RunSpec(None, block_routed, balance="blocksplit")

    def test_all_problems_reported_at_once(self, citeseer_cfg):
        with pytest.raises(ValueError) as excinfo:
            RunSpec(None, citeseer_cfg, machines=0, balance="nope", workers=-1)
        message = str(excinfo.value)
        assert "machines" in message
        assert "balance" in message
        assert "workers" in message

    def test_validate_catches_post_construction_mutation(self, citeseer_cfg):
        spec = RunSpec(None, citeseer_cfg)
        spec.balance = "typo"
        with pytest.raises(ValueError, match="balance"):
            spec.validate()
