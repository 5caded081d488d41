"""Tests for ProblemInstance."""

from __future__ import annotations

import pytest

from repro.carbon.intervals import PowerProfile
from repro.schedule.instance import ProblemInstance
from repro.utils.errors import InfeasibleScheduleError


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
            assert tiny_multi_instance.work_power_map[node] == dag.processor_spec(node).p_work
            assert (
                tiny_multi_instance.active_power_map[node]
                == dag.processor_spec(node).total_power
            )

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
