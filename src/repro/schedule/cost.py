"""Carbon-cost evaluation of schedules.

The carbon cost of a schedule is ``CC = Σ_t max(P_t − G_t, 0)`` (§3 of the
paper): the platform power ``P_t`` drawn in time unit ``t`` (every
processor's idle power plus the working power of the tasks running in ``t``)
minus the green budget ``G_t``, counted only where it is positive.

Every evaluator here reads one excess row ``P_t − G_t`` of Python ints built
by :func:`_excess_row`: one running sum over a list of differences (``idle −
G_0`` at 0, each budget step at its interval's begin, ``+P_work`` at each
task's start and ``−P_work`` at its finish).  The row extends past the
deadline when a task finishes after it, with the last interval's budget, so
infeasible schedules still get a well-defined, comparable cost (feasibility
is checked separately by :func:`repro.schedule.validation.check_schedule`).
A schedule's row is built once and kept on the schedule as a tuple, so it
cannot be edited: its cost and its breakdown read it, and the local search
and the tests' reference evaluator,
:class:`~repro.schedule.timeline.PowerTimeline`, start from a copy of it
(:func:`_fitting_excess`).  :class:`~repro.schedule.instance.ProblemInstance`
rejects an instance whose powers and budgets could add up past ``int64``,
the bound the NumPy reference below and the exact solvers rely on.

:func:`carbon_cost_per_time_unit` builds its rows independently, task by task
with NumPy; it is the reference the tests check the shared row against.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Hashable, Mapping, Tuple

import numpy as np

from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import InvalidScheduleError

__all__ = ["carbon_cost", "carbon_cost_per_time_unit", "brown_energy_breakdown"]


def _excess_row(instance: ProblemInstance, starts: Mapping[Hashable, int]) -> Tuple[int, ...]:
    """Return the platform power minus the green budget of every time unit.

    *starts* maps nodes of the instance's DAG (all of them, or only those
    placed so far) to non-negative start times.  The row spans ``[0, max(T,
    latest finish))``; past the deadline ``T`` the last interval's budget
    holds.
    """
    duration = instance.dag.duration_map()
    work_power = instance.dag._work_power
    profile = instance.profile
    ends = [start + duration[node] for node, start in starts.items()]
    delta = [0] * (max(profile.horizon, max(ends, default=0)) + 1)
    # The budget steps down from the idle power: idle - G_0 at 0, then
    # G_{j-1} - G_j at each interval's begin.
    previous = instance.total_idle_power()
    for interval in profile:
        delta[interval.begin] = previous - interval.budget
        previous = interval.budget
    for node, start, end in zip(starts, starts.values(), ends):
        power = work_power[node]
        delta[start] += power
        delta[end] -= power
    delta.pop()
    return tuple(accumulate(delta))


def _schedule_excess(schedule: Schedule) -> Tuple[int, ...]:
    """Return *schedule*'s excess row, built once and kept on it."""
    row = schedule._excess
    if row is None:
        row = schedule._excess = _excess_row(schedule.instance, schedule._start)
    return row


def _fitting_excess(instance: ProblemInstance, schedule: Schedule) -> Tuple[int, ...]:
    """Return *schedule*'s excess row on *instance*, ending at the deadline.

    The row a costed schedule holds is reused.  A task that finishes after
    the deadline raises :class:`InvalidScheduleError` naming it.
    """
    starts = schedule._start
    if schedule.instance is instance:
        row = _schedule_excess(schedule)
    else:
        row = _excess_row(instance, starts)
    horizon = instance.deadline
    if len(row) > horizon:
        duration = instance.dag.duration_map()
        node = next(node for node, start in starts.items() if start + duration[node] > horizon)
        raise InvalidScheduleError(
            f"task {node!r} at start {starts[node]} (duration "
            f"{duration[node]}) does not fit into the horizon [0, {horizon})"
        )
    return row


def carbon_cost(schedule: Schedule) -> int:
    """Compute the total carbon cost of *schedule*.

    Time units after the deadline (reached only by infeasible schedules) are
    charged against the last interval's budget.
    """
    return sum(cell for cell in _schedule_excess(schedule) if cell > 0)


def carbon_cost_per_time_unit(schedule: Schedule) -> int:
    """Compute the carbon cost by summing over every time unit (reference).

    This is the literal definition ``CC = Σ_t max(P_t − G_t, 0)`` from §3 of
    the paper, vectorised with NumPy.  It is pseudo-polynomial in the deadline
    and therefore only used for validation and small instances.
    """
    instance = schedule.instance
    profile = instance.profile
    dag = instance.dag
    horizon = max(profile.horizon, schedule.makespan)

    power = np.full(horizon, instance.total_idle_power(), dtype=np.int64)
    for node in dag.nodes():
        start = schedule.start(node)
        finish = start + dag.duration(node)
        work_power = dag.processor_spec(node).p_work
        if work_power and finish > start:
            power[start:finish] += work_power

    budgets = np.empty(horizon, dtype=np.int64)
    budgets[: profile.horizon] = profile.budgets_per_time_unit()
    if horizon > profile.horizon:
        budgets[profile.horizon :] = profile.interval(profile.num_intervals - 1).budget

    return int(np.maximum(power - budgets, 0).sum())


def brown_energy_breakdown(schedule: Schedule) -> Dict[int, int]:
    """Return the carbon cost attributed to each profile interval.

    The keys are 0-based interval indices; the values sum to
    :func:`carbon_cost` for schedules that finish within the horizon (the
    cost of time units after the deadline is not attributed).  Used by
    examples and reporting to show *where* brown energy is consumed.
    """
    row = _schedule_excess(schedule)
    return {
        index: sum(cell for cell in row[interval.begin : interval.end] if cell > 0)
        for index, interval in enumerate(schedule.instance.profile.intervals())
    }
