"""Schedule and profile builders shared by the tests."""

from __future__ import annotations

from typing import Hashable, List, Sequence

from repro.carbon.intervals import PowerProfile
from repro.schedule.asap import latest_start_times
from repro.schedule.instance import ProblemInstance
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


def alap_schedule(instance: ProblemInstance) -> Schedule:
    """Return the ALAP schedule of *instance*: every task at its latest start time."""
    lst = latest_start_times(instance.dag, instance.deadline)
    return Schedule(instance, lst, algorithm="ALAP")


def profile_from_time_unit_budgets(budgets: Sequence[int]) -> PowerProfile:
    """Return the profile whose budget per time unit is *budgets*, merging equal runs."""
    lengths: List[int] = []
    values: List[int] = []
    for value in budgets:
        value = int(value)
        if values and values[-1] == value:
            lengths[-1] += 1
        else:
            lengths.append(1)
            values.append(value)
    return PowerProfile(lengths, values)
