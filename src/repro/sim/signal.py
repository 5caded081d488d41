"""The true green-power signal of an online simulation.

Offline, the paper's scheduler sees one :class:`~repro.carbon.intervals.PowerProfile`
over a fixed horizon.  Online, there is instead a *signal*: a green power
budget defined for every virtual time unit, derived from a (cyclic)
carbon-intensity trace and the platform's power envelope, from which windows
are cut as workflows arrive.  :class:`CarbonSignal` is that bridge:

* :meth:`CarbonSignal.budget_at` — the true budget of any absolute time unit,
* :meth:`CarbonSignal.window` — the true :class:`PowerProfile` over an
  absolute window ``[begin, begin + length)`` (what a clairvoyant scheduler
  would see),
* :meth:`CarbonSignal.green_fraction` — the normalised greenness in
  ``[0, 1]`` used by threshold policies.

The conversion mirrors :func:`repro.carbon.traces.profile_from_trace`: the
cleaner the grid at a time unit, the larger the share of the platform's work
power that is assumed green, on top of a floor at the platform's idle power.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.carbon.intervals import PowerProfile
from repro.carbon.traces import CarbonIntensityTrace
from repro.utils.validation import check_in_range, check_non_negative_int, check_positive_int

__all__ = ["CarbonSignal"]


class CarbonSignal:
    """Per-time-unit green power budgets derived from a carbon-intensity trace.

    Parameters
    ----------
    trace:
        The carbon-intensity trace; sampled cyclically beyond its end, so a
        24-hour trace yields an endless diurnal signal.
    idle_power:
        Total idle power of the platform (the budget floor).
    work_power:
        Total working power of the platform; the variable part of the budget
        is at most ``green_cap * work_power``.
    green_cap:
        Fraction of the work power reachable by the budget (paper: 0.8).
    """

    def __init__(
        self,
        trace: CarbonIntensityTrace,
        *,
        idle_power: int,
        work_power: int,
        green_cap: float = 0.8,
    ) -> None:
        self.trace = trace
        self.idle_power = check_non_negative_int(idle_power, "idle_power")
        self.work_power = check_non_negative_int(work_power, "work_power")
        check_in_range(green_cap, "green_cap", low=0.0, high=1.0)
        self.green_cap = float(green_cap)
        low = min(trace.intensities)
        high = max(trace.intensities)
        self._low = float(low)
        self._spread = float(high - low) or 1.0
        # A budget depends only on the trace sample a time unit falls in.
        self._budgets: List[int] = [
            int(
                round(
                    self.idle_power
                    + self._fraction(float(intensity)) * self.green_cap * self.work_power
                )
            )
            for intensity in trace.intensities
        ]

    # ------------------------------------------------------------------ #
    def _fraction(self, intensity: float) -> float:
        return 1.0 - (intensity - self._low) / self._spread

    def green_fraction(self, time: int) -> float:
        """Return the normalised greenness of time unit *time* (1 = cleanest)."""
        return self._fraction(self.trace.intensity_at(int(time)))

    def budget_at(self, time: int) -> int:
        """Return the true green budget of absolute time unit *time*."""
        time = check_non_negative_int(int(time), "time")
        return self._budgets[(time // self.trace.sample_duration) % len(self._budgets)]

    def window(self, begin: int, length: int) -> PowerProfile:
        """Return the true power profile over ``[begin, begin + length)``.

        The returned profile is *relative*: its horizon starts at 0 and spans
        *length* time units, matching how schedules are planned (the engine
        shifts start times back to absolute time when executing).  Its
        intervals are the maximal runs of equal budgets, cut sample by sample.
        """
        begin = check_non_negative_int(begin, "begin")
        length = check_positive_int(length, "length")
        lengths: List[int] = []
        budgets: List[int] = []
        for run, budget in self._runs(begin, begin + length):
            if budgets and budgets[-1] == budget:
                lengths[-1] += run
            else:
                lengths.append(run)
                budgets.append(budget)
        return PowerProfile(lengths, budgets)

    def _runs(self, begin: int, end: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(length, budget)`` for each trace sample ``[begin, end)`` overlaps, in order."""
        sample_duration = self.trace.sample_duration
        time = begin
        while time < end:
            sample = time // sample_duration
            run_end = min((sample + 1) * sample_duration, end)
            yield run_end - time, self._budgets[sample % len(self._budgets)]
            time = run_end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CarbonSignal(trace={self.trace.name!r}, idle={self.idle_power}, "
            f"work={self.work_power}, cap={self.green_cap})"
        )
