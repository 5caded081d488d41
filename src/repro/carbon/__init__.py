"""Carbon / green-power substrate: interval profiles, scenarios S1–S4, traces."""

from repro.carbon.intervals import Interval, PowerProfile
from repro.carbon.scenarios import (
    DEFAULT_GREEN_CAP,
    DEFAULT_NUM_INTERVALS,
    DEFAULT_PERTURBATION,
    SCENARIOS,
    generate_power_profile,
    scenario_fraction,
)
from repro.carbon.traces import (
    SYNTHETIC_TRACE_PROFILES,
    CarbonIntensityTrace,
    profile_from_trace,
    synthetic_daily_trace,
)

__all__ = [
    "Interval",
    "PowerProfile",
    "SCENARIOS",
    "DEFAULT_GREEN_CAP",
    "DEFAULT_NUM_INTERVALS",
    "DEFAULT_PERTURBATION",
    "generate_power_profile",
    "scenario_fraction",
    "CarbonIntensityTrace",
    "profile_from_trace",
    "synthetic_daily_trace",
    "SYNTHETIC_TRACE_PROFILES",
]
