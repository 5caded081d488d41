"""Tests for ASAP / ALAP schedules and EST/LST computations."""

from __future__ import annotations

import pytest

from repro.carbon.intervals import PowerProfile
from repro.schedule.asap import (
    asap_makespan,
    asap_schedule,
    earliest_start_times,
    latest_start_times,
)
from repro.schedule.instance import ProblemInstance
from repro.schedule.validation import is_feasible
from repro.utils.errors import InfeasibleScheduleError
from schedule_helpers import alap_schedule


class TestEarliestStartTimes:
    def test_sources_start_at_zero(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        est = earliest_start_times(dag)
        for node in dag.nodes():
            if not dag.predecessors(node):
                assert est[node] == 0

    def test_est_respects_predecessors(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        est = earliest_start_times(dag)
        for source, target in dag.edges():
            assert est[target] >= est[source] + dag.duration(source)

    def test_est_is_tight(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        est = earliest_start_times(dag)
        for node in dag.nodes():
            preds = dag.predecessors(node)
            if preds:
                assert est[node] == max(est[p] + dag.duration(p) for p in preds)


class TestLatestStartTimes:
    def test_sinks_end_at_deadline(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        deadline = tiny_multi_instance.deadline
        lst = latest_start_times(dag, deadline)
        for node in dag.nodes():
            if not dag.successors(node):
                assert lst[node] == deadline - dag.duration(node)

    def test_lst_respects_successors(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        lst = latest_start_times(dag, tiny_multi_instance.deadline)
        for source, target in dag.edges():
            assert lst[source] + dag.duration(source) <= lst[target]

    def test_est_not_greater_than_lst(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        est = earliest_start_times(dag)
        lst = latest_start_times(dag, tiny_multi_instance.deadline)
        for node in dag.nodes():
            assert est[node] <= lst[node]

    def test_too_tight_deadline_raises(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        with pytest.raises(InfeasibleScheduleError):
            latest_start_times(dag, dag.critical_path_duration() - 1)


class TestAsapSchedule:
    def test_asap_is_feasible(self, tiny_multi_instance):
        assert is_feasible(asap_schedule(tiny_multi_instance))

    def test_asap_makespan_equals_critical_path(self, tiny_multi_instance):
        dag = tiny_multi_instance.dag
        assert asap_makespan(dag) == dag.critical_path_duration()

    def test_asap_makespan_equals_schedule_makespan(self, tiny_multi_instance):
        assert asap_schedule(tiny_multi_instance).makespan == asap_makespan(
            tiny_multi_instance.dag
        )

    def test_asap_ignores_profile(self, tiny_multi_instance):
        other_profile = PowerProfile([tiny_multi_instance.deadline], [0])
        other = ProblemInstance(tiny_multi_instance.dag, other_profile)
        assert (
            asap_schedule(tiny_multi_instance).start_times()
            == asap_schedule(other).start_times()
        )

    def test_algorithm_label(self, tiny_multi_instance):
        assert asap_schedule(tiny_multi_instance).algorithm == "ASAP"


class TestAlapSchedule:
    def test_alap_is_feasible(self, tiny_multi_instance):
        assert is_feasible(alap_schedule(tiny_multi_instance))

    def test_alap_finishes_at_deadline(self, tiny_multi_instance):
        schedule = alap_schedule(tiny_multi_instance)
        assert schedule.makespan == tiny_multi_instance.deadline

    def test_alap_never_earlier_than_asap(self, tiny_multi_instance):
        asap = asap_schedule(tiny_multi_instance)
        alap = alap_schedule(tiny_multi_instance)
        for node in tiny_multi_instance.dag.nodes():
            assert alap.start(node) >= asap.start(node)
