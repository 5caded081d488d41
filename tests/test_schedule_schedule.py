"""Tests for the Schedule value object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.schedule.asap import asap_schedule, earliest_start_times
from repro.schedule.schedule import Schedule
from repro.utils.errors import InvalidScheduleError

from schedule_helpers import with_start


class TestScheduleConstruction:
    def test_from_est(self, tiny_multi_instance):
        est = earliest_start_times(tiny_multi_instance.dag)
        schedule = Schedule(tiny_multi_instance, est, algorithm="test")
        assert schedule.algorithm == "test"
        assert len(schedule) == tiny_multi_instance.num_tasks

    def test_missing_task_rejected(self, tiny_multi_instance):
        est = earliest_start_times(tiny_multi_instance.dag)
        est.pop(next(iter(est)))
        with pytest.raises(InvalidScheduleError):
            Schedule(tiny_multi_instance, est)

    def test_extra_task_rejected(self, tiny_multi_instance):
        est = earliest_start_times(tiny_multi_instance.dag)
        est["ghost-task"] = 0
        with pytest.raises(InvalidScheduleError):
            Schedule(tiny_multi_instance, est)

    def test_negative_start_rejected(self, tiny_multi_instance):
        est = earliest_start_times(tiny_multi_instance.dag)
        est[next(iter(est))] = -1
        with pytest.raises(InvalidScheduleError):
            Schedule(tiny_multi_instance, est)

    @pytest.mark.parametrize(
        "value", [1.7, 2.0, "3", "x", True, None, float("nan"), np.float64(1.0)]
    )
    def test_non_integer_start_rejected(self, tiny_multi_instance, value):
        est = earliest_start_times(tiny_multi_instance.dag)
        est[next(iter(est))] = value
        with pytest.raises(InvalidScheduleError, match="non-integer start time"):
            Schedule(tiny_multi_instance, est)

    def test_numpy_integer_start_accepted(self, tiny_multi_instance):
        est = earliest_start_times(tiny_multi_instance.dag)
        node = next(iter(est))
        est[node] = np.int64(est[node])
        schedule = Schedule(tiny_multi_instance, est)
        assert type(schedule.start(node)) is int


class TestScheduleAccessors:
    def test_start_finish_duration_relation(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        dag = tiny_multi_instance.dag
        for node in dag.nodes():
            assert schedule.finish(node) == schedule.start(node) + dag.duration(node)

    def test_makespan(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        assert schedule.makespan == max(schedule.finish(n) for n in schedule)

    def test_meets_deadline(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        assert schedule.makespan <= tiny_multi_instance.deadline

    def test_unknown_task_raises(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        with pytest.raises(InvalidScheduleError):
            schedule.start("ghost")

    def test_start_times_returns_copy(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        times = schedule.start_times()
        node = next(iter(times))
        times[node] += 1000
        assert schedule.start(node) != times[node]


class TestScheduleCopy:
    def test_copy_equal_but_independent(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        clone = schedule.copy(algorithm="clone")
        assert clone == schedule  # equality ignores the algorithm label
        assert clone.algorithm == "clone"

    def test_with_start(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        node = next(iter(schedule))
        moved = with_start(schedule, node, schedule.start(node) + 1)
        assert moved.start(node) == schedule.start(node) + 1
        assert moved != schedule

    def test_with_start_unknown_task(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        with pytest.raises(InvalidScheduleError):
            with_start(schedule, "ghost", 3)

    def test_contains_and_iter(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        for node in tiny_multi_instance.dag.nodes():
            assert node in schedule
        assert set(iter(schedule)) == set(tiny_multi_instance.dag.nodes())
