"""Schedules, cost evaluation, feasibility checking and the ASAP baseline."""

from repro.utils.lazy import _lazy_exports

__all__ = [
    "ProblemInstance",
    "Schedule",
    "brown_energy_breakdown",
    "carbon_cost",
    "carbon_cost_per_time_unit",
    "PowerTimeline",
    "check_schedule",
    "is_feasible",
    "asap_makespan",
    "asap_schedule",
    "earliest_start_times",
    "latest_start_times",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.schedule.instance": ("ProblemInstance",),
        "repro.schedule.schedule": ("Schedule",),
        "repro.schedule.cost": (
            "brown_energy_breakdown",
            "carbon_cost",
            "carbon_cost_per_time_unit",
        ),
        "repro.schedule.timeline": ("PowerTimeline",),
        "repro.schedule.validation": (
            "check_schedule",
            "is_feasible",
        ),
        "repro.schedule.asap": (
            "asap_makespan",
            "asap_schedule",
            "earliest_start_times",
            "latest_start_times",
        ),
    },
)
