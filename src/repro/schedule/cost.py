"""Carbon-cost evaluation of schedules.

The carbon cost of a schedule is ``CC = Σ_t max(P_t − G_t, 0)`` (§3 of the
paper): the platform power ``P_t`` drawn in time unit ``t`` (every
processor's idle power plus the working power of the tasks running in ``t``)
minus the green budget ``G_t``, counted only where it is positive.

Every evaluator here reads one pair of rows built by :func:`_power_rows`: the
power row is a difference array (``+P_work`` at each task's start, ``−P_work``
at its finish) summed cumulatively on top of the idle baseline, and the
budget row repeats each profile interval's budget over its time units.  Both
rows extend past the deadline when a task finishes after it, with the last
interval's budget, so infeasible schedules still get a well-defined,
comparable cost (feasibility is checked separately by
:func:`repro.schedule.validation.check_schedule`).
A schedule's rows are built once: :func:`carbon_cost` keeps them, read-only,
on the schedule, and a :class:`~repro.schedule.timeline.PowerTimeline`
loaded from it starts from a copy of its power row (an uncosted schedule's
timeline builds its own rows).

:func:`carbon_cost_per_time_unit` builds its rows independently, task by task;
it is the reference the tests check the shared rows against.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Tuple

import numpy as np

from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule

__all__ = ["carbon_cost", "carbon_cost_per_time_unit", "brown_energy_breakdown"]


def _read_only(row: np.ndarray) -> np.ndarray:
    """Return *row* made read-only, so that a shared row cannot be edited in place."""
    row.setflags(write=False)
    return row


def _power_rows(
    instance: ProblemInstance, starts: Mapping[Hashable, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the platform power and the green budget of every time unit.

    *starts* maps nodes of the instance's DAG (all of them, or only those
    placed so far) to non-negative start times.  Both ``int64`` rows span
    ``[0, max(T, latest finish))``; past the deadline ``T`` the budget is the
    last interval's.  Within the horizon the budget row is memoised on the
    instance and shared, so it is read-only.
    """
    profile = instance.profile
    count = len(starts)
    duration = instance.dag.duration_map()
    work_power = instance.work_power_map
    begin = np.fromiter(starts.values(), np.int64, count)
    end = begin + np.fromiter(map(duration.__getitem__, starts), np.int64, count)
    power = np.fromiter(map(work_power.__getitem__, starts), np.int64, count)
    horizon = max(profile.horizon, int(end.max(initial=0)))
    delta = np.zeros(horizon + 1, dtype=np.int64)
    np.add.at(delta, begin, power)
    np.subtract.at(delta, end, power)
    row = delta[:-1].cumsum()
    row += instance.total_idle_power()
    budget = instance._memoised("budget_row", lambda: _read_only(profile.budgets_per_time_unit()))
    if horizon > profile.horizon:
        budget = np.concatenate(
            (budget, np.full(horizon - profile.horizon, budget[-1], dtype=np.int64))
        )
    return row, budget


def _schedule_rows(schedule: Schedule) -> Tuple[np.ndarray, np.ndarray]:
    """Return *schedule*'s power and budget rows, built once and kept read-only on it."""
    rows = schedule._rows
    if rows is None:
        power, budget = _power_rows(schedule.instance, schedule._start)
        rows = schedule._rows = (_read_only(power), _read_only(budget))
    return rows


def carbon_cost(schedule: Schedule) -> int:
    """Compute the total carbon cost of *schedule*.

    Time units after the deadline (reached only by infeasible schedules) are
    charged against the last interval's budget.
    """
    power, budget = _schedule_rows(schedule)
    return int(np.maximum(power - budget, 0).sum())


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
    power, budget = _schedule_rows(schedule)
    brown = np.maximum(power - budget, 0)
    return {
        index: int(brown[interval.begin : interval.end].sum())
        for index, interval in enumerate(schedule.instance.profile.intervals())
    }
