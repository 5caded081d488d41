"""Carbon-cost evaluation of schedules.

Two evaluators are provided:

* :func:`carbon_cost` — the polynomial interval-by-interval computation of
  Appendix A.1: the horizon is swept once; sub-interval boundaries are created
  at every task start/end and at every profile boundary, the platform power is
  constant within each sub-interval, and the cost of a sub-interval is
  ``max(power − budget, 0) × length``.
* :func:`carbon_cost_per_time_unit` — the pseudo-polynomial reference
  implementation that literally loops over the ``T`` time units (vectorised
  with NumPy).  It exists to cross-check the polynomial evaluator in tests and
  to serve as the ground-truth definition (§3 of the paper).

Both return exactly the same integer for any feasible schedule.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.schedule.schedule import Schedule

__all__ = ["carbon_cost", "carbon_cost_per_time_unit", "power_events", "brown_energy_breakdown"]


def power_events(schedule: Schedule) -> List[Tuple[int, int]]:
    """Return the (time, power-delta) events induced by the schedule.

    Every task contributes ``+P_work`` of its processor at its start time and
    ``−P_work`` at its finish time.  Idle power is not part of the events (it
    is a constant baseline).
    """
    instance = schedule.instance
    duration = instance.dag.duration_map()
    work_power = instance.work_power_map
    events: List[Tuple[int, int]] = []
    for node, start in schedule.start_times().items():
        power = work_power[node]
        if power:
            events.append((start, power))
            events.append((start + duration[node], -power))
    events.sort()
    return events


def carbon_cost(schedule: Schedule) -> int:
    """Compute the total carbon cost of *schedule* (polynomial sweep).

    The computation follows Appendix A.1 of the paper: the horizon is split at
    every profile boundary and at every task start/finish; within each
    resulting sub-interval the total platform power is constant, so the cost
    is ``max(power − budget, 0)`` times the sub-interval length.

    Tasks finishing after the horizon still contribute events; the cost beyond
    the horizon is accounted against the last interval's budget so that
    infeasible (deadline-violating) schedules still get a well-defined,
    comparable cost.  Feasibility itself is checked separately by
    :func:`repro.schedule.validation.check_schedule`.
    """
    instance = schedule.instance
    profile = instance.profile
    idle_power = instance.total_idle_power()

    events = power_events(schedule)
    boundaries = sorted(
        set(profile.boundaries())
        | {time for time, _ in events}
        | {0}
    )
    # Make sure the sweep covers the full horizon even if no task touches it.
    horizon_end = max(profile.horizon, boundaries[-1] if boundaries else 0)
    if boundaries[-1] < horizon_end:
        boundaries.append(horizon_end)

    # Aggregate the power deltas per boundary time.
    delta_at: Dict[int, int] = {}
    for time, delta in events:
        delta_at[time] = delta_at.get(time, 0) + delta

    total_cost = 0
    power = idle_power
    last_budget = profile.interval(profile.num_intervals - 1).budget
    for begin, end in zip(boundaries, boundaries[1:]):
        power += delta_at.get(begin, 0)
        if begin >= profile.horizon:
            budget = last_budget
        else:
            budget = profile.budget_at(begin)
        length = end - begin
        if length > 0:
            total_cost += max(power - budget, 0) * length
    return int(total_cost)


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
    :func:`carbon_cost` for schedules that finish within the horizon.  Used by
    examples and reporting to show *where* brown energy is consumed.
    """
    instance = schedule.instance
    profile = instance.profile
    dag = instance.dag
    horizon = profile.horizon

    power = np.full(horizon, instance.total_idle_power(), dtype=np.int64)
    for node in dag.nodes():
        start = schedule.start(node)
        finish = min(start + dag.duration(node), horizon)
        work_power = dag.processor_spec(node).p_work
        if work_power and finish > start and start < horizon:
            power[start:finish] += work_power

    budgets = profile.budgets_per_time_unit()
    brown = np.maximum(power - budgets, 0)
    breakdown: Dict[int, int] = {}
    for index, interval in enumerate(profile.intervals()):
        breakdown[index] = int(brown[interval.begin : interval.end].sum())
    return breakdown
