"""Tests for the carbon-aware HEFT first pass (the paper's §7 extension)."""

from __future__ import annotations

import pytest

from repro.carbon.scenarios import generate_power_profile
from repro.core.scheduler import CaWoSched
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.presets import scaled_small_cluster
from repro.schedule.asap import asap_makespan
from repro.schedule.instance import ProblemInstance
from repro.workflow.generators import atacseq_like_workflow, fork_join_workflow


class TestCarbonAwareHeft:
    def test_zero_power_weight_matches_heft(self):
        workflow = atacseq_like_workflow(40, rng=1)
        cluster = scaled_small_cluster()
        plain = heft_mapping(workflow, cluster)
        green = heft_mapping(workflow, cluster, power_weight=0.0)
        assert green.mapping.assignment() == plain.mapping.assignment()
        assert green.makespan == plain.makespan

    def test_produces_valid_mapping(self):
        workflow = atacseq_like_workflow(50, rng=2)
        cluster = scaled_small_cluster()
        result = heft_mapping(workflow, cluster, power_weight=0.5)
        assert set(result.mapping.assignment()) == set(workflow.tasks())
        dag = build_enhanced_dag(result.mapping, rng=2)
        assert dag.num_nodes >= workflow.number_of_tasks

    def test_energy_greedy_picks_per_task_energy_minimiser(self):
        workflow = fork_join_workflow(6, stages=1, rng=0)
        cluster = scaled_small_cluster()
        energy_only = heft_mapping(workflow, cluster, power_weight=1.0)
        # With the energy-only objective every task lands on a processor that
        # minimises its own energy (duration × total power); finish times are
        # ignored.
        for task in workflow.tasks():
            work = workflow.work(task)
            chosen = cluster.processor(energy_only.mapping.processor_of(task))
            chosen_energy = chosen.execution_time(work) * chosen.total_power
            best_energy = min(
                spec.execution_time(work) * spec.total_power
                for spec in cluster.processors()
            )
            assert chosen_energy == best_energy

    def test_higher_power_weight_never_increases_mapping_energy(self):
        workflow = atacseq_like_workflow(40, rng=3)
        cluster = scaled_small_cluster()

        def mapping_energy(result):
            return sum(
                result.mapping.duration(task)
                * cluster.processor(result.mapping.processor_of(task)).total_power
                for task in workflow.tasks()
            )

        plain = mapping_energy(heft_mapping(workflow, cluster, power_weight=0.0))
        green = mapping_energy(heft_mapping(workflow, cluster, power_weight=0.8))
        assert green <= plain

    def test_invalid_power_weight(self):
        workflow = atacseq_like_workflow(20, rng=0)
        with pytest.raises(ValueError):
            heft_mapping(workflow, scaled_small_cluster(), power_weight=1.5)

    def test_two_pass_pipeline_runs_end_to_end(self):
        """Carbon-aware mapping (pass 1) + CaWoSched (pass 2)."""
        workflow = atacseq_like_workflow(40, rng=5)
        cluster = scaled_small_cluster()
        result = heft_mapping(workflow, cluster, power_weight=0.4)
        dag = build_enhanced_dag(result.mapping, rng=5)
        deadline = 2 * asap_makespan(dag)
        profile = generate_power_profile(
            "S1", deadline,
            idle_power=dag.platform.total_idle_power(),
            work_power=dag.platform.total_work_power(), rng=5,
        )
        instance = ProblemInstance(dag, profile, name="two-pass")
        scheduled = CaWoSched().run(instance, "pressWR-LS")
        baseline = CaWoSched().run(instance, "ASAP")
        assert scheduled.carbon_cost <= baseline.carbon_cost
