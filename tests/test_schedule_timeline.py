"""Tests for the mutable PowerTimeline."""

from __future__ import annotations

import re

import pytest

from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.timeline import PowerTimeline
from repro.utils.errors import InvalidScheduleError

from schedule_helpers import with_start


class TestPlacement:
    def test_total_cost_matches_cost_evaluator(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        assert timeline.total_cost() == carbon_cost(schedule)

    def test_single_timeline_is_its_own_kernel(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        kernel, timelines = PowerTimeline._stacked(tiny_multi_instance, [schedule])
        assert timelines == [kernel]
        assert kernel.total_cost() == PowerTimeline(tiny_multi_instance, schedule).total_cost()

    def test_schedule_past_horizon_rejected(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        dag = tiny_multi_instance.dag
        sink = next(n for n in dag.nodes() if not dag.successors(n))
        late = with_start(schedule, sink, tiny_multi_instance.deadline)
        with pytest.raises(InvalidScheduleError, match=re.escape(f"task {sink!r} at start")):
            PowerTimeline(tiny_multi_instance, late)

    def test_start_of_and_is_placed(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        with pytest.raises(InvalidScheduleError, match="not placed"):
            timeline.start_of("missing")
        for node in tiny_multi_instance.dag.nodes():
            assert timeline.start_of(node) == schedule.start(node)


class TestMoves:
    def test_move_changes_start(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        node = tiny_multi_instance.dag.nodes()[0]
        new_start = min(
            tiny_multi_instance.deadline - tiny_multi_instance.dag.duration(node),
            schedule.start(node) + 1,
        )
        timeline.move(node, new_start)
        assert timeline.start_of(node) == new_start

    def test_move_gain_is_consistent_with_total_cost(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        dag = tiny_multi_instance.dag
        for node in dag.nodes():
            current = timeline.start_of(node)
            candidate = min(
                tiny_multi_instance.deadline - dag.duration(node), current + 2
            )
            if candidate == current:
                continue
            before = timeline.total_cost()
            gain = timeline.move_gain(node, candidate)
            # The timeline must be unchanged by move_gain ...
            assert timeline.total_cost() == before
            assert timeline.start_of(node) == current
            # ... and the gain must equal the actual cost difference.
            timeline.move(node, candidate)
            after = timeline.total_cost()
            assert before - after == gain
            timeline.move(node, current)

    def test_move_gain_zero_for_same_start(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        node = tiny_multi_instance.dag.nodes()[0]
        assert timeline.move_gain(node, timeline.start_of(node)) == 0

    def test_move_gain_outside_horizon_rejected(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        node = tiny_multi_instance.dag.nodes()[0]
        with pytest.raises(InvalidScheduleError):
            timeline.move_gain(node, tiny_multi_instance.deadline)

    def test_move_outside_horizon_rejected_and_leaves_state(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        node = tiny_multi_instance.dag.nodes()[0]
        start = timeline.start_of(node)
        before = timeline._power.copy()
        with pytest.raises(InvalidScheduleError):
            timeline.move(node, tiny_multi_instance.deadline)
        assert timeline.start_of(node) == start
        assert (timeline._power == before).all()

    def test_move_matches_a_timeline_loaded_after_the_move(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        dag = tiny_multi_instance.dag
        for node in dag.nodes():
            candidate = min(
                tiny_multi_instance.deadline - dag.duration(node),
                timeline.start_of(node) + 3,
            )
            timeline.move(node, candidate)
            schedule = with_start(schedule, node, candidate)
            loaded = PowerTimeline(tiny_multi_instance, schedule)
            assert (timeline._power == loaded._power).all()
            assert timeline.total_cost() == loaded.total_cost()

    def test_gain_profile_covers_current_start_with_zero(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        dag = tiny_multi_instance.dag
        node = dag.nodes()[0]
        start = timeline.start_of(node)
        hi = tiny_multi_instance.deadline - dag.duration(node)
        profile = timeline.gain_profile(node, 0, hi)
        assert profile[start] == 0
        assert len(profile) == hi + 1


class TestAsSchedule:
    def test_roundtrip_through_schedule(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        timeline = PowerTimeline(tiny_multi_instance, schedule)
        placed = {node: timeline.start_of(node) for node in schedule}
        assert placed == schedule.start_times()
        assert timeline.total_cost() == carbon_cost(schedule)

    def test_segment_cost_clipping(self, tiny_multi_instance):
        timeline = PowerTimeline(tiny_multi_instance, asap_schedule(tiny_multi_instance))
        assert timeline.segment_cost(-10, 0) == 0
        assert timeline.segment_cost(5, 5) == 0
        total = timeline.segment_cost(0, tiny_multi_instance.deadline)
        assert total == timeline.total_cost()


class TestStackedTimelines:
    """The timelines of a lock-step group share one power buffer."""

    def test_rows_equal_lone_timelines(self, tiny_multi_instance):
        from repro.core.greedy import greedy_schedule

        schedules = [
            asap_schedule(tiny_multi_instance),
            greedy_schedule(tiny_multi_instance, base="pressure"),
            asap_schedule(tiny_multi_instance),
        ]
        kernel, timelines = PowerTimeline._stacked(tiny_multi_instance, schedules)
        lone = [PowerTimeline(tiny_multi_instance, schedule) for schedule in schedules]
        for timeline, reference in zip(timelines, lone):
            assert timeline._power.tolist() == reference._power.tolist()
            assert timeline.total_cost() == reference.total_cost()
        assert kernel.horizon == len(schedules) * tiny_multi_instance.deadline
        # A move updates the shared buffer the kernel reads.
        dag = tiny_multi_instance.dag
        node = next(
            node for node in dag.nodes()
            if dag.duration(node) and timelines[1].start_of(node) > 0
        )
        timelines[1].move(node, timelines[1].start_of(node) - 1)
        assert timelines[1]._power.tolist() != lone[1]._power.tolist()
        assert kernel._power.tolist() == sum(
            (timeline._power.tolist() for timeline in timelines), []
        )

    def test_single_timeline_is_its_own_kernel(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        kernel, timelines = PowerTimeline._stacked(tiny_multi_instance, [schedule])
        assert timelines == [kernel]
        assert kernel.total_cost() == PowerTimeline(tiny_multi_instance, schedule).total_cost()

    def test_schedule_past_horizon_rejected(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        dag = tiny_multi_instance.dag
        sink = next(n for n in dag.nodes() if not dag.successors(n))
        late = with_start(schedule, sink, tiny_multi_instance.deadline)
        with pytest.raises(InvalidScheduleError, match=re.escape(f"task {sink!r} at start")):
            PowerTimeline._stacked(tiny_multi_instance, [schedule, late])
