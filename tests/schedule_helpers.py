"""Schedule builders shared by the tests."""

from __future__ import annotations

from typing import Hashable

from repro.schedule.schedule import Schedule


def with_start(schedule: Schedule, node: Hashable, start: int) -> Schedule:
    """Return a copy of *schedule* with *node* moved to *start*.

    The result is checked like any :class:`Schedule` (every node covered,
    non-negative integer starts) but not for feasibility, so tests use it to
    build schedules that break a deadline or a precedence edge.
    """
    starts = schedule.start_times()
    starts[node] = start
    return Schedule(schedule.instance, starts, algorithm=schedule.algorithm)
