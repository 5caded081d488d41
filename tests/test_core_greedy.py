"""Tests for the greedy CaWoSched phase and its budget bookkeeping."""

from __future__ import annotations

import itertools

import pytest

from repro.carbon.intervals import PowerProfile
from repro.core.greedy import BudgetIntervals, greedy_schedule
from repro.core.variants import ALL_VARIANTS, GREEDY_VARIANTS
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.validation import is_feasible
from repro.utils.errors import CaWoSchedError


class TestBudgetIntervals:
    @pytest.fixture
    def profile(self) -> PowerProfile:
        return PowerProfile([5, 5, 5], [2, 9, 4])

    def test_initial_intervals_match_profile(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        assert budgets.intervals() == [(0, 5, 2), (5, 10, 9), (10, 15, 4)]

    def test_extra_subdivision_points_split_intervals(self, profile):
        budgets = BudgetIntervals(profile, [0, 3, 5, 12])
        assert (0, 3, 2) in budgets.intervals()
        assert (3, 5, 2) in budgets.intervals()
        assert (12, 15, 4) in budgets.intervals()

    def test_best_start_prefers_highest_budget(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        assert budgets.best_start(0, 14) == 5  # budget 9 interval

    def test_best_start_tie_breaks_earliest(self, profile):
        tie_profile = PowerProfile([5, 5], [7, 7])
        budgets = BudgetIntervals(tie_profile, [0, 5])
        assert budgets.best_start(0, 9) == 0

    def test_best_start_respects_window(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        assert budgets.best_start(6, 14) == 10
        assert budgets.best_start(1, 4) is None

    def test_consume_reduces_budget_and_splits(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        budgets.consume(3, 7, power=4)
        intervals = dict(
            ((begin, end), budget) for begin, end, budget in budgets.intervals()
        )
        assert intervals[(0, 3)] == 2
        assert intervals[(3, 5)] == 2 - 4
        assert intervals[(5, 7)] == 9 - 4
        assert intervals[(7, 10)] == 9

    def test_consume_is_clipped_to_horizon(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        budgets.consume(12, 99, power=1)
        assert budgets.intervals()[-1][2] == 3

    def test_consume_empty_window_is_noop(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        before = budgets.intervals()
        budgets.consume(7, 7, power=10)
        assert budgets.intervals() == before

    def test_intervals_remain_contiguous_after_many_consumes(self, profile):
        budgets = BudgetIntervals(profile, [0, 5, 10])
        for begin, end in [(1, 4), (4, 9), (9, 15), (0, 15), (2, 3)]:
            budgets.consume(begin, end, power=1)
        intervals = budgets.intervals()
        assert intervals[0][0] == 0
        assert intervals[-1][1] == 15
        for (b1, e1, _), (b2, e2, _) in zip(intervals, intervals[1:]):
            assert e1 == b2


class TestGreedySchedule:
    @pytest.mark.parametrize(
        "base,weighted,refined",
        list(itertools.product(["slack", "pressure"], [False, True], [False, True])),
    )
    def test_all_variants_produce_feasible_schedules(
        self, tiny_multi_instance, base, weighted, refined
    ):
        schedule = greedy_schedule(
            tiny_multi_instance, base=base, weighted=weighted, refined=refined
        )
        assert is_feasible(schedule)

    def test_greedy_never_worse_than_asap_on_green_middle_profile(
        self, tiny_multi_instance
    ):
        """On this instance the green budget is larger late, so the greedy
        must find a schedule at most as expensive as ASAP."""
        greedy = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        baseline = asap_schedule(tiny_multi_instance)
        assert carbon_cost(greedy) <= carbon_cost(baseline)

    def test_unknown_base_rejected(self, tiny_multi_instance):
        with pytest.raises(CaWoSchedError):
            greedy_schedule(tiny_multi_instance, base="priority")

    def test_algorithm_names(self, tiny_multi_instance):
        assert (
            greedy_schedule(tiny_multi_instance, base="slack").algorithm == "slack"
        )
        # Every configuration is labelled with its variant name; CaWoSched
        # relies on it, since the local search labels its result
        # "<greedy label>-LS".
        for name in GREEDY_VARIANTS:
            spec = ALL_VARIANTS[name]
            schedule = greedy_schedule(
                tiny_multi_instance, base=spec.base, weighted=spec.weighted,
                refined=spec.refined,
            )
            assert schedule.algorithm == name
            assert f"{name}-LS" in ALL_VARIANTS

    def test_deterministic(self, tiny_multi_instance):
        a = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        b = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        assert a.start_times() == b.start_times()

    def test_single_processor_instance(self, tiny_single_instance):
        schedule = greedy_schedule(tiny_single_instance, base="slack", refined=True)
        assert is_feasible(schedule)
