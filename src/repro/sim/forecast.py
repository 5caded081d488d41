"""Carbon forecast models: what a policy believes about future green power.

Online policies cannot see the true future of the green-power signal; they
plan against a *forecast*.  A forecast model answers one question — "standing
at time *now*, what budget do you predict for the window ``[now, now +
length)``?" — and three classic models are provided:

* :class:`OracleForecast` — perfect knowledge (the clairvoyant upper bound;
  with it, online planning coincides with the offline scheduler),
* :class:`PersistenceForecast` — "the future looks like right now": every
  future time unit is predicted at the currently observed budget (the
  standard naive baseline of the forecasting literature),
* :class:`MovingAverageForecast` — the mean observed budget over a trailing
  window, smoothing out short-lived dips and spikes.

All models are deterministic functions of the signal and the query, so
simulations using them stay byte-reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.carbon.intervals import PowerProfile
from repro.sim.signal import CarbonSignal
from repro.utils.errors import SimulationError
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = [
    "CarbonForecast",
    "OracleForecast",
    "PersistenceForecast",
    "MovingAverageForecast",
    "FORECAST_MODELS",
    "make_forecast",
]


class CarbonForecast(ABC):
    """Base class of all forecast models over a :class:`CarbonSignal`."""

    #: Registry name of the model (set by subclasses).
    name: str = "?"

    def __init__(self, signal: CarbonSignal) -> None:
        self.signal = signal

    @abstractmethod
    def profile(self, now: int, length: int) -> PowerProfile:
        """Predict, at time *now*, the power profile of ``[now, now + length)``.

        The returned profile is relative (starts at 0), like the planning
        windows the engine hands to the scheduler.
        """


class OracleForecast(CarbonForecast):
    """Perfect foresight: the forecast *is* the true signal window."""

    name = "oracle"

    def profile(self, now: int, length: int) -> PowerProfile:
        return self.signal.window(now, length)


class PersistenceForecast(CarbonForecast):
    """Naive persistence: every future time unit looks like the present one."""

    name = "persistence"

    def profile(self, now: int, length: int) -> PowerProfile:
        length = check_positive_int(length, "length")
        return PowerProfile.constant(length, self.signal.budget_at(now))


class MovingAverageForecast(CarbonForecast):
    """Trailing moving average of the observed budgets.

    Parameters
    ----------
    signal:
        The true signal (observations are read from it).
    window:
        Number of trailing time units averaged (clipped at time 0, so early
        forecasts average over what little history exists).
    """

    name = "moving-average"

    def __init__(self, signal: CarbonSignal, *, window: int = 120) -> None:
        super().__init__(signal)
        self.window = check_positive_int(window, "window")

    def profile(self, now: int, length: int) -> PowerProfile:
        length = check_positive_int(length, "length")
        now = check_non_negative_int(int(now), "time")
        begin = max(0, now - self.window + 1)
        # The budget is constant within a trace sample: sum sample by sample.
        total = sum(run * budget for run, budget in self.signal._runs(begin, now + 1))
        level = int(round(total / (now + 1 - begin)))
        return PowerProfile.constant(length, level)


#: Registry of the forecast model names.
FORECAST_MODELS = (
    OracleForecast.name,
    PersistenceForecast.name,
    MovingAverageForecast.name,
)


def make_forecast(
    name: str, signal: CarbonSignal, *, ma_window: int = 120
) -> CarbonForecast:
    """Build the forecast model called *name* over *signal*.

    Parameters
    ----------
    name:
        One of :data:`FORECAST_MODELS`.
    signal:
        The true signal.
    ma_window:
        Trailing window of the moving-average model (ignored by the others).
    """
    if name == OracleForecast.name:
        return OracleForecast(signal)
    if name == PersistenceForecast.name:
        return PersistenceForecast(signal)
    if name == MovingAverageForecast.name:
        return MovingAverageForecast(signal, window=ma_window)
    known = ", ".join(FORECAST_MODELS)
    raise SimulationError(f"unknown forecast model {name!r}; known: {known}")
