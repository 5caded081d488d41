"""Carbon / green-power substrate: interval profiles, scenarios S1–S4, traces."""

from repro.utils.lazy import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.carbon.intervals": (
            "Interval",
            "PowerProfile",
        ),
        "repro.carbon.scenarios": (
            "DEFAULT_GREEN_CAP",
            "DEFAULT_NUM_INTERVALS",
            "DEFAULT_PERTURBATION",
            "SCENARIOS",
            "generate_power_profile",
            "scenario_fraction",
        ),
        "repro.carbon.traces": (
            "SYNTHETIC_TRACE_PROFILES",
            "CarbonIntensityTrace",
            "profile_from_trace",
            "synthetic_daily_trace",
        ),
    },
)
