"""Tests for the 3-Partition hardness construction."""

from __future__ import annotations

import pytest

from repro.core.scheduler import CaWoSched
from repro.exact.ilp import ilp_optimal
from repro.experiments.hardness import (
    solvable_three_partition_items,
    three_partition_instance,
    three_partition_profile,
)
from repro.schedule.cost import carbon_cost
from repro.schedule.schedule import Schedule
from repro.utils.errors import InvalidWorkflowError


class TestProfile:
    def test_alternating_structure(self):
        profile = three_partition_profile(3, 20)
        assert profile.num_intervals == 5
        assert profile.horizon == 3 * 20 + 2
        budgets = [iv.budget for iv in profile]
        assert budgets == [1, 0, 1, 0, 1]
        lengths = [iv.length for iv in profile]
        assert lengths == [20, 1, 20, 1, 20]


class TestItemGeneration:
    def test_generated_items_are_valid(self):
        items, bound = solvable_three_partition_items(4, bound=20, rng=0)
        assert len(items) == 12
        assert sum(items) == 4 * bound
        assert all(bound / 4 < x < bound / 2 for x in items)

    def test_determinism(self):
        a, _ = solvable_three_partition_items(3, bound=24, rng=9)
        b, _ = solvable_three_partition_items(3, bound=24, rng=9)
        assert a == b

    def test_too_small_bound_rejected(self):
        with pytest.raises(InvalidWorkflowError):
            solvable_three_partition_items(2, bound=8)


class TestInstanceConstruction:
    def test_structure(self):
        items, bound = solvable_three_partition_items(2, bound=20, rng=1)
        instance = three_partition_instance(items, bound)
        assert instance.num_tasks == 6
        assert instance.dag.num_comm_tasks == 0
        assert instance.total_idle_power() == 0
        assert instance.deadline == 2 * bound + 1

    def test_invalid_items_rejected(self):
        with pytest.raises(InvalidWorkflowError):
            three_partition_instance([10, 10, 10], bound=20)  # violates B/4 < x < B/2
        with pytest.raises(InvalidWorkflowError):
            three_partition_instance([6, 7, 8, 9], bound=20)  # not a multiple of 3

    def test_solvable_instance_has_zero_cost_optimum(self):
        """For a solvable multiset the optimal carbon cost is 0 (ILP check)."""
        items, bound = solvable_three_partition_items(2, bound=16, rng=3)
        instance = three_partition_instance(items, bound)
        optimal = ilp_optimal(instance)
        assert carbon_cost(optimal) == 0

    def test_manual_partition_schedule_has_zero_cost(self):
        # items form two triplets summing to B = 16 each.
        items = [5, 5, 6, 5, 5, 6]
        instance = three_partition_instance(items, 16)
        # Execute tasks 0,1,2 sequentially in interval 1 and 3,4,5 in interval 3.
        starts = {}
        offset = 0
        for index in (0, 1, 2):
            starts[f"t{index}"] = offset
            offset += items[index]
        offset = 17  # second long interval starts after [0,16) and the gap [16,17)
        for index in (3, 4, 5):
            starts[f"t{index}"] = offset
            offset += items[index]
        schedule = Schedule(instance, starts, algorithm="manual")
        assert carbon_cost(schedule) == 0

    def test_asap_on_hardness_instance_is_expensive(self):
        items, bound = solvable_three_partition_items(2, bound=16, rng=5)
        instance = three_partition_instance(items, bound)
        assert CaWoSched().run(instance, "ASAP").carbon_cost > 0
