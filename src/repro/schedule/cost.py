"""Carbon-cost evaluation of schedules.

The carbon cost of a schedule is ``CC = Σ_t max(P_t − G_t, 0)`` (§3 of the
paper): the platform power ``P_t`` drawn in time unit ``t`` (every
processor's idle power plus the working power of the tasks running in ``t``)
minus the green budget ``G_t``, counted only where it is positive.

Every evaluator here reads one excess row ``P_t − G_t`` built by
:func:`_excess_row`: a difference array (``+P_work`` at each task's start,
``−P_work`` at its finish) summed cumulatively on top of the instance's idle
excess ``idle − G_t``.  The row extends past the deadline when a task
finishes after it, with the last interval's budget, so infeasible schedules
still get a well-defined, comparable cost (feasibility is checked separately
by :func:`repro.schedule.validation.check_schedule`).  A schedule's row is
built once and kept, read-only, on the schedule: its cost, its breakdown
and the local search start from it, and so does the tests' reference
evaluator, :class:`~repro.schedule.timeline.PowerTimeline`.  The row and its
sums are ``int64``; :class:`~repro.schedule.instance.ProblemInstance` rejects
an instance whose powers and budgets could add up past that.

:func:`carbon_cost_per_time_unit` builds its rows independently, task by task;
it is the reference the tests check the shared row against.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping

import numpy as np

from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule

__all__ = ["carbon_cost", "carbon_cost_per_time_unit", "brown_energy_breakdown"]


def _read_only(row: np.ndarray) -> np.ndarray:
    """Return *row* made read-only, so that a shared row cannot be edited in place."""
    row.setflags(write=False)
    return row


def _excess_row(instance: ProblemInstance, starts: Mapping[Hashable, int]) -> np.ndarray:
    """Return the platform power minus the green budget of every time unit.

    *starts* maps nodes of the instance's DAG (all of them, or only those
    placed so far) to non-negative start times.  The ``int64`` row spans
    ``[0, max(T, latest finish))``.  Its idle part, ``idle − G_t`` over
    ``[0, T)``, is memoised on the instance and read-only; past the deadline
    ``T`` the last interval's budget holds.
    """
    count = len(starts)
    duration = instance.dag.duration_map()
    work_power = instance.work_power_map
    begin = np.fromiter(starts.values(), np.int64, count)
    end = begin + np.fromiter(map(duration.__getitem__, starts), np.int64, count)
    power = np.fromiter(map(work_power.__getitem__, starts), np.int64, count)
    idle = instance._memoised(
        "idle_excess_row",
        lambda: _read_only(instance.total_idle_power() - instance.profile.budgets_per_time_unit()),
    )
    deadline = len(idle)
    delta = np.zeros(max(deadline, int(end.max(initial=0))) + 1, dtype=np.int64)
    np.add.at(delta, begin, power)
    np.subtract.at(delta, end, power)
    row = delta[:-1].cumsum()
    row[:deadline] += idle
    row[deadline:] += idle[-1]
    return row


def _schedule_excess(schedule: Schedule) -> np.ndarray:
    """Return *schedule*'s excess row, built once and kept read-only on it."""
    row = schedule._excess
    if row is None:
        row = schedule._excess = _read_only(_excess_row(schedule.instance, schedule._start))
    return row


def carbon_cost(schedule: Schedule) -> int:
    """Compute the total carbon cost of *schedule*.

    Time units after the deadline (reached only by infeasible schedules) are
    charged against the last interval's budget.
    """
    return int(np.maximum(_schedule_excess(schedule), 0).sum())


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
    brown = np.maximum(_schedule_excess(schedule), 0)
    return {
        index: int(brown[interval.begin : interval.end].sum())
        for index, interval in enumerate(schedule.instance.profile.intervals())
    }
