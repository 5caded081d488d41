"""Tests for experiment instance generation."""

from __future__ import annotations

import pytest

from repro.experiments.instances import (
    DEFAULT_DEADLINE_FACTORS,
    DEFAULT_SCENARIOS,
    InstanceSpec,
    build_instance,
    default_grid,
    make_instance,
    single_processor_instance,
)
from repro.platform_.presets import scaled_small_cluster
from repro.schedule.asap import asap_makespan
from repro.workflow.generators import generate_workflow


class TestBuildInstance:
    def test_deadline_factor_applied(self):
        workflow = generate_workflow("atacseq", 30, rng=0)
        cluster = scaled_small_cluster()
        instance = build_instance(
            workflow, cluster, scenario="S1", deadline_factor=2.0, rng=0
        )
        tight = instance.metadata["asap_makespan"]
        assert instance.deadline == 2 * tight
        assert asap_makespan(instance.dag) == tight

    def test_metadata_fields(self):
        workflow = generate_workflow("eager", 30, rng=1)
        cluster = scaled_small_cluster()
        instance = build_instance(
            workflow, cluster, scenario="S3", deadline_factor=1.5, rng=1,
            metadata={"family": "eager"},
        )
        assert instance.metadata["scenario"] == "S3"
        assert instance.metadata["cluster"] == "small"
        assert instance.metadata["deadline_factor"] == 1.5
        assert instance.metadata["family"] == "eager"

    def test_invalid_deadline_factor(self):
        workflow = generate_workflow("atacseq", 20, rng=0)
        with pytest.raises(ValueError):
            build_instance(
                workflow, scaled_small_cluster(), scenario="S1", deadline_factor=0.5
            )

    def test_budget_bounds_relative_to_platform(self):
        workflow = generate_workflow("methylseq", 30, rng=2)
        cluster = scaled_small_cluster()
        instance = build_instance(
            workflow, cluster, scenario="S2", deadline_factor=2.0, rng=2
        )
        idle = instance.total_idle_power()
        work = instance.total_work_power()
        for interval in instance.profile:
            assert idle <= interval.budget <= idle + 0.8 * work + 1


class TestMakeInstance:
    def test_deterministic_per_spec(self):
        spec = InstanceSpec("atacseq", 25, "small", "S1", 1.5, seed=4)
        a = make_instance(spec, master_seed=9)
        b = make_instance(spec, master_seed=9)
        assert a.deadline == b.deadline
        assert a.num_tasks == b.num_tasks
        assert [iv.budget for iv in a.profile] == [iv.budget for iv in b.profile]

    def test_different_seed_changes_instance(self):
        spec_a = InstanceSpec("atacseq", 25, "small", "S1", 1.5, seed=1)
        spec_b = InstanceSpec("atacseq", 25, "small", "S1", 1.5, seed=2)
        a = make_instance(spec_a)
        b = make_instance(spec_b)
        assert (
            a.deadline != b.deadline
            or [iv.budget for iv in a.profile] != [iv.budget for iv in b.profile]
        )

    def test_label(self):
        spec = InstanceSpec("eager", 40, "large", "S4", 3.0)
        assert spec.label == "eager-40-large-S4-d3"

    def test_unknown_cluster_preset(self):
        spec = InstanceSpec("eager", 20, "huge", "S1", 1.0)
        with pytest.raises(ValueError):
            make_instance(spec)


class TestGrids:
    def test_default_grid_structure(self):
        grid = default_grid(sizes=(30, 60), seed=1)
        # bacass only at its smallest size: 3 families × 2 sizes + 1 = 7
        # workflow cells, × 2 clusters × 4 scenarios × 4 deadlines.
        assert len(grid) == 7 * 2 * 4 * 4
        assert all(spec.seed == 1 for spec in grid)
        assert {spec.scenario for spec in grid} == set(DEFAULT_SCENARIOS)
        assert {spec.deadline_factor for spec in grid} == set(DEFAULT_DEADLINE_FACTORS)

    def test_grid_cells_are_unique(self):
        grid = default_grid(sizes=(30,))
        assert len({spec.label for spec in grid}) == len(grid)


class TestSingleProcessorInstance:
    def test_is_single_processor(self):
        instance = single_processor_instance(5, seed=1)
        assert len(instance.dag.processors_with_tasks()) == 1
        assert instance.dag.num_comm_tasks == 0

    def test_size(self):
        instance = single_processor_instance(6, seed=0)
        assert instance.num_tasks == 6
