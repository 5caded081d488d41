"""Tests for the carbon-cost evaluators."""

from __future__ import annotations

import pytest

from repro.carbon.intervals import PowerProfile
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.mapping import Mapping
from repro.platform_.presets import single_processor_cluster
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import (
    _excess_row,
    brown_energy_breakdown,
    carbon_cost,
    carbon_cost_per_time_unit,
)
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.workflow.dag import Workflow
from schedule_helpers import alap_schedule


def single_task_instance(work: int, p_idle: int, p_work: int, profile: PowerProfile):
    wf = Workflow("one")
    wf.add_task("t", work=work)
    cluster = single_processor_cluster(p_idle=p_idle, p_work=p_work)
    mapping = Mapping(wf, cluster, {"t": "p0"})
    dag = build_enhanced_dag(mapping, rng=0)
    return ProblemInstance(dag, profile)


class TestHandComputedCosts:
    def test_single_task_fully_green(self):
        instance = single_task_instance(3, p_idle=1, p_work=2, profile=PowerProfile([10], [5]))
        schedule = Schedule(instance, {"t": 0})
        # Power is 3 while running, 1 while idle; budget 5 everywhere -> cost 0.
        assert carbon_cost(schedule) == 0

    def test_single_task_all_brown(self):
        instance = single_task_instance(4, p_idle=1, p_work=2, profile=PowerProfile([10], [0]))
        schedule = Schedule(instance, {"t": 2})
        # Idle cost 1 for 6 units + active cost 3 for 4 units = 6 + 12 = 18.
        assert carbon_cost(schedule) == 18

    def test_single_task_partial_budget(self):
        profile = PowerProfile([5, 5], [3, 1])
        instance = single_task_instance(4, p_idle=1, p_work=2, profile=profile)
        # Run in the first (greener) interval: active power 3 <= 3 -> 0 cost
        # there; idle power 1 <= 1 in the second interval -> total 0.
        assert carbon_cost(Schedule(instance, {"t": 0})) == 0
        # Run in the second interval: active power 3 vs budget 1 -> 2 per unit
        # for 4 units = 8.
        assert carbon_cost(Schedule(instance, {"t": 5})) == 8

    def test_task_straddling_interval_boundary(self):
        profile = PowerProfile([5, 5], [3, 0])
        instance = single_task_instance(4, p_idle=0, p_work=3, profile=profile)
        schedule = Schedule(instance, {"t": 3})
        # 2 units in the first interval (cost 0), 2 units in the second
        # (cost 3 each) = 6.
        assert carbon_cost(schedule) == 6

    def test_task_past_horizon_charged_against_last_budget(self):
        profile = PowerProfile([5, 5], [3, 1])
        instance = single_task_instance(4, p_idle=1, p_work=2, profile=profile)
        schedule = Schedule(instance, {"t": 8})
        # Active power 3 from 8 to 12.  Units 8-9 lie in the last interval
        # (budget 1): cost 2 each.  Units 10-11 lie past the horizon T = 10
        # and are charged against the last interval's budget 1, not the
        # first interval's 3: cost 2 each.  Total 8; idle power 1 before 8
        # stays within both budgets.
        assert carbon_cost(schedule) == 8
        assert carbon_cost_per_time_unit(schedule) == 8
        # The interval breakdown attributes only the time units before T.
        assert brown_energy_breakdown(schedule) == {0: 0, 1: 4}


class TestEvaluatorEquivalence:
    def test_asap_and_alap_agree_with_reference(self, tiny_multi_instance):
        for schedule in (asap_schedule(tiny_multi_instance), alap_schedule(tiny_multi_instance)):
            assert carbon_cost(schedule) == carbon_cost_per_time_unit(schedule)

    def test_single_instance_agreement(self, tiny_single_instance):
        schedule = asap_schedule(tiny_single_instance)
        assert carbon_cost(schedule) == carbon_cost_per_time_unit(schedule)

    def test_costs_are_non_negative(self, tiny_multi_instance):
        assert carbon_cost(asap_schedule(tiny_multi_instance)) >= 0


class TestSharedBudgetRow:
    def test_budget_row_is_read_only(self, tiny_multi_instance):
        # The budget lives in one memo per instance: idle power minus budget.
        _excess_row(tiny_multi_instance, asap_schedule(tiny_multi_instance).start_times())
        idle = tiny_multi_instance._memo["idle_excess_row"]
        with pytest.raises(ValueError, match="read-only"):
            idle[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            idle -= 1
        _excess_row(tiny_multi_instance, {})
        assert tiny_multi_instance._memo["idle_excess_row"] is idle
        # With no task placed, the row is the idle excess itself.
        assert _excess_row(tiny_multi_instance, {}).tolist() == idle.tolist()


class TestBrownEnergyBreakdown:
    def test_breakdown_sums_to_total(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        breakdown = brown_energy_breakdown(schedule)
        assert sum(breakdown.values()) == carbon_cost(schedule)
        assert set(breakdown) == set(range(tiny_multi_instance.profile.num_intervals))

    def test_zero_cost_breakdown(self):
        instance = single_task_instance(3, p_idle=0, p_work=1, profile=PowerProfile([10], [5]))
        breakdown = brown_energy_breakdown(Schedule(instance, {"t": 0}))
        assert all(value == 0 for value in breakdown.values())
