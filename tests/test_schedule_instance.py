"""Tests for ProblemInstance."""

from __future__ import annotations

import pytest

from repro.carbon.intervals import PowerProfile
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.presets import uniform_cluster
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost, carbon_cost_per_time_unit
from repro.schedule.instance import ProblemInstance
from repro.utils.errors import CaWoSchedError, InfeasibleScheduleError, InvalidScheduleError

from schedule_helpers import two_task_chain


class TestProblemInstance:
    def test_deadline_is_profile_horizon(self, tiny_multi_instance):
        assert tiny_multi_instance.deadline == tiny_multi_instance.profile.horizon

    def test_num_tasks_matches_dag(self, tiny_multi_instance):
        assert tiny_multi_instance.num_tasks == tiny_multi_instance.dag.num_nodes

    def test_power_totals_delegate_to_platform(self, tiny_multi_instance):
        platform = tiny_multi_instance.dag.platform
        assert tiny_multi_instance.total_idle_power() == platform.total_idle_power()
        assert tiny_multi_instance.total_work_power() == platform.total_work_power()

    def test_work_power_of_node(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        for node in dag.nodes():
            rank = dag._position[node]
            spec = dag.processor_spec(node)
            assert dag._work_power[node] == dag._work_power_row[rank] == spec.p_work
            assert dag._active_power_row[rank] == spec.total_power

    def test_infeasible_deadline_rejected(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        too_short = dag.critical_path_duration() - 1
        assert too_short > 0
        with pytest.raises(InfeasibleScheduleError):
            ProblemInstance(dag, PowerProfile([too_short], [5]))

    def test_deadline_equal_to_critical_path_is_allowed(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        exact = dag.critical_path_duration()
        instance = ProblemInstance(dag, PowerProfile([exact], [5]))
        assert instance.deadline == exact

    def test_describe_contains_metadata(self, tiny_multi_instance):
        summary = tiny_multi_instance.describe()
        assert summary["tasks"] == tiny_multi_instance.num_tasks
        assert summary["deadline"] == tiny_multi_instance.deadline
        assert "name" in summary


class TestInt64Sums:
    # Every power and budget below fits int64 on its own; the cost rows
    # add them up.  The two-task chain's bound is (p_idle + p_work) * 2
    # + budget * 2.
    def test_sums_up_to_int64_are_costed_exactly(self):
        instance = two_task_chain(2**61, 2**61 - 1, 0)
        schedule = asap_schedule(instance)
        assert carbon_cost(schedule) == carbon_cost_per_time_unit(schedule) == 2**63 - 2

    @pytest.mark.parametrize(
        "p_idle, p_work, budget", [(2**61, 2**61, 0), (2**61, 2**61 - 1, 1), (2**62, 0, 0)]
    )
    def test_sums_beyond_int64_are_rejected(self, p_idle, p_work, budget):
        with pytest.raises(InvalidScheduleError, match="more than the int64 costs can hold"):
            two_task_chain(p_idle, p_work, budget)

    def test_instances_over_one_dag_sum_its_platform_and_durations_once(
        self, tiny_multi_instance, monkeypatch
    ):
        dag = tiny_multi_instance.dag
        power = tiny_multi_instance.total_idle_power() + tiny_multi_instance.total_work_power()
        assert power == sum(spec.total_power for spec in dag.platform.processors())
        assert dag._total_duration == sum(dag.duration(node) for node in dag.nodes())

        def unexpected():
            raise AssertionError("the platform is summed again")

        monkeypatch.setattr(dag.platform, "processors", unexpected)
        ProblemInstance(dag, PowerProfile([tiny_multi_instance.deadline + 3], [5]))
        # The shared sums still bound the new profile's budget.
        with pytest.raises(InvalidScheduleError, match="int64"):
            ProblemInstance(dag, PowerProfile([tiny_multi_instance.deadline], [2**62]))

    def test_diamond_that_used_to_get_a_wrapped_cost(self, diamond_workflow_fixed):
        # The total power, 2**63 plus the links' powers, over ten time
        # units: its ASAP cost wrapped around int64 before the check.
        cluster = uniform_cluster(2, p_idle=2**61, p_work=2**61)
        dag = build_enhanced_dag(heft_mapping(diamond_workflow_fixed, cluster).mapping, rng=0)
        with pytest.raises(CaWoSchedError, match="int64"):
            ProblemInstance(dag, PowerProfile([5, 5], [0, 0]))
