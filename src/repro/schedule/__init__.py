"""Schedules, cost evaluation, feasibility checking and the ASAP baseline."""

from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.cost import (
    brown_energy_breakdown,
    carbon_cost,
    carbon_cost_per_time_unit,
)
from repro.schedule.timeline import PowerTimeline
from repro.schedule.validation import check_schedule, is_feasible
from repro.schedule.asap import (
    alap_schedule,
    asap_makespan,
    asap_schedule,
    earliest_start_times,
    latest_start_times,
)

__all__ = [
    "ProblemInstance",
    "Schedule",
    "brown_energy_breakdown",
    "carbon_cost",
    "carbon_cost_per_time_unit",
    "PowerTimeline",
    "check_schedule",
    "is_feasible",
    "alap_schedule",
    "asap_makespan",
    "asap_schedule",
    "earliest_start_times",
    "latest_start_times",
]
