"""Carbon-intensity traces and their conversion to green-power profiles.

Public carbon-intensity datasets (ElectricityMaps, WattTime, national TSOs)
report the grid's carbon intensity in gCO₂eq/kWh over time.  The paper's model
instead works with a *green power budget* per interval.  This module bridges
the two views:

* :class:`CarbonIntensityTrace` holds a sampled intensity time series,
* :func:`profile_from_trace` converts a trace into a
  :class:`~repro.carbon.intervals.PowerProfile`: the lower the intensity, the
  larger the share of the platform's power that is assumed to be green,
* :func:`synthetic_daily_trace` provides offline stand-ins for public traces
  (solar-dominated, wind-dominated, nuclear-dominated/flat, coal-heavy daily
  shapes) so that the trace-driven code path can be exercised without network
  access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.carbon.intervals import PowerProfile
from repro.utils.errors import InvalidProfileError
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_in_range, check_non_negative_int, check_positive_int

__all__ = [
    "CarbonIntensityTrace",
    "profile_from_trace",
    "synthetic_daily_trace",
    "SYNTHETIC_TRACE_PROFILES",
]


@dataclass(frozen=True)
class CarbonIntensityTrace:
    """A sampled carbon-intensity time series.

    Parameters
    ----------
    intensities:
        Carbon intensity per sample (gCO₂eq/kWh, non-negative floats).
    sample_duration:
        Duration of each sample in scheduler time units (positive integer).
        A typical public trace has hourly samples; with one scheduler time
        unit per minute, ``sample_duration=60``.
    name:
        Free-form label (e.g. ``"DE-2024-06-13"`` or ``"synthetic-solar"``).
    """

    intensities: tuple
    sample_duration: int = 1
    name: str = "trace"

    def __post_init__(self) -> None:
        if len(self.intensities) == 0:
            raise InvalidProfileError("a trace needs at least one sample")
        if any(value < 0 for value in self.intensities):
            raise InvalidProfileError("carbon intensities must be non-negative")
        check_positive_int(self.sample_duration, "sample_duration")

    @property
    def num_samples(self) -> int:
        """Number of samples in the trace."""
        return len(self.intensities)

    @property
    def duration(self) -> int:
        """Total covered duration in scheduler time units."""
        return self.num_samples * self.sample_duration

    def intensity_at(self, time: int) -> float:
        """Return the intensity at scheduler time unit *time* (cyclic beyond the end)."""
        check_non_negative_int(time, "time")
        index = (time // self.sample_duration) % self.num_samples
        return float(self.intensities[index])

    def normalised(self) -> List[float]:
        """Return intensities rescaled to ``[0, 1]`` (0 = cleanest, 1 = dirtiest)."""
        low = min(self.intensities)
        high = max(self.intensities)
        if high == low:
            return [0.5] * self.num_samples
        return [(value - low) / (high - low) for value in self.intensities]


#: Shapes of the synthetic daily traces (24 hourly intensity values each,
#: gCO₂eq/kWh).  The absolute numbers are representative of public data for
#: the respective grid archetypes; only the *shape* matters for scheduling.
SYNTHETIC_TRACE_PROFILES: Dict[str, Sequence[float]] = {
    # Solar-dominated grid: clean around noon, dirty at night.
    "solar": (
        420, 430, 435, 440, 430, 400, 340, 270, 210, 160, 130, 115,
        110, 115, 130, 165, 220, 290, 360, 410, 430, 435, 430, 425,
    ),
    # Wind-dominated grid: two irregular clean periods.
    "wind": (
        250, 230, 210, 190, 180, 185, 200, 230, 260, 280, 290, 280,
        260, 230, 200, 180, 170, 175, 190, 220, 250, 270, 280, 265,
    ),
    # Nuclear/hydro-dominated grid (France-like): flat and low.
    "nuclear": (
        60, 58, 57, 56, 56, 57, 60, 64, 68, 70, 71, 70,
        68, 66, 65, 64, 65, 67, 70, 72, 71, 68, 64, 61,
    ),
    # Coal-heavy grid: high and flat with an evening peak.
    "coal": (
        680, 675, 670, 668, 670, 680, 700, 720, 730, 735, 730, 725,
        720, 718, 720, 730, 745, 760, 770, 765, 750, 730, 710, 695,
    ),
}


def synthetic_daily_trace(
    kind: str = "solar",
    *,
    sample_duration: int = 1,
    rng: RNGLike = None,
    noise: float = 0.05,
) -> CarbonIntensityTrace:
    """Return a synthetic 24-sample daily carbon-intensity trace.

    Parameters
    ----------
    kind:
        One of ``"solar"``, ``"wind"``, ``"nuclear"``, ``"coal"``.
    sample_duration:
        Scheduler time units per sample.
    rng:
        Seed or generator for the multiplicative noise.
    noise:
        Relative standard deviation of the noise (0 disables it).
    """
    if kind not in SYNTHETIC_TRACE_PROFILES:
        known = ", ".join(sorted(SYNTHETIC_TRACE_PROFILES))
        raise InvalidProfileError(f"unknown trace kind {kind!r}; known: {known}")
    check_in_range(noise, "noise", low=0.0, high=1.0)
    rng = ensure_rng(rng)
    base = SYNTHETIC_TRACE_PROFILES[kind]
    values = []
    for value in base:
        factor = 1.0 + float(rng.normal(0.0, noise)) if noise > 0 else 1.0
        values.append(max(0.0, value * factor))
    return CarbonIntensityTrace(
        intensities=tuple(values),
        sample_duration=sample_duration,
        name=f"synthetic-{kind}",
    )


def profile_from_trace(
    trace: CarbonIntensityTrace,
    horizon: int,
    *,
    idle_power: int,
    work_power: int,
    green_cap: float = 0.8,
    num_intervals: int = 24,
) -> PowerProfile:
    """Convert a carbon-intensity trace into a green-power profile.

    The normalised intensity ``ι ∈ [0, 1]`` of each interval (0 = cleanest
    hour of the trace) is mapped to a green fraction ``1 − ι``; the interval's
    budget is then ``idle_power + (1 − ι) · green_cap · work_power``, i.e. the
    cleaner the grid, the more of the platform's potential draw is considered
    green.  The trace is sampled cyclically if the horizon exceeds its
    duration.

    Parameters
    ----------
    trace:
        The carbon-intensity trace.
    horizon:
        The deadline ``T``.
    idle_power, work_power:
        Platform totals, as in
        :func:`repro.carbon.scenarios.generate_power_profile`.
    green_cap:
        Fraction of the work power reachable by the budget.
    num_intervals:
        Number of profile intervals over the horizon.
    """
    horizon = check_positive_int(horizon, "horizon")
    idle_power = check_non_negative_int(idle_power, "idle_power")
    work_power = check_non_negative_int(work_power, "work_power")
    check_in_range(green_cap, "green_cap", low=0.0, high=1.0)
    num_intervals = min(check_positive_int(num_intervals, "num_intervals"), horizon)

    lengths = np.full(num_intervals, horizon // num_intervals, dtype=np.int64)
    lengths[: horizon % num_intervals] += 1

    low = min(trace.intensities)
    high = max(trace.intensities)
    spread = (high - low) or 1.0

    budgets: List[int] = []
    begin = 0
    for length in lengths:
        midpoint = begin + int(length) // 2
        intensity = trace.intensity_at(midpoint)
        normalised = (intensity - low) / spread
        green_fraction = 1.0 - normalised
        budgets.append(int(round(idle_power + green_fraction * green_cap * work_power)))
        begin += int(length)
    return PowerProfile([int(l) for l in lengths], budgets)
