"""Tests for the carbon signal and forecast models (:mod:`repro.sim`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon.traces import CarbonIntensityTrace, synthetic_daily_trace
from repro.sim.forecast import (
    FORECAST_MODELS,
    MovingAverageForecast,
    OracleForecast,
    PersistenceForecast,
    make_forecast,
)
from repro.sim.signal import CarbonSignal
from repro.utils.errors import SimulationError
from schedule_helpers import profile_from_time_unit_budgets


@pytest.fixture
def signal() -> CarbonSignal:
    trace = synthetic_daily_trace("solar", sample_duration=60, noise=0.0)
    return CarbonSignal(trace, idle_power=100, work_power=400, green_cap=0.8)


def reference_budget(trace: CarbonIntensityTrace, time: int, *, idle_power: int,
                     work_power: int, green_cap: float) -> int:
    """The budget formula written out per time unit (test-only reference)."""
    low = min(trace.intensities)
    spread = float(max(trace.intensities) - low) or 1.0
    intensity = float(trace.intensities[(time // trace.sample_duration) % trace.num_samples])
    fraction = 1.0 - (intensity - float(low)) / spread
    return int(round(idle_power + fraction * green_cap * work_power))


PARITY_TRACES = {
    "solar-1": synthetic_daily_trace("solar", sample_duration=1, noise=0.0),
    "solar-60": synthetic_daily_trace("solar", sample_duration=60, noise=0.0),
    "wind-noisy-60": synthetic_daily_trace("wind", sample_duration=60, noise=0.2, rng=4),
    "flat-1": CarbonIntensityTrace((300.0,) * 5, sample_duration=1, name="flat"),
    "flat-60": CarbonIntensityTrace((300.0,) * 5, sample_duration=60, name="flat"),
}
POWER = {"idle_power": 37, "work_power": 413, "green_cap": 0.7}


class TestCarbonSignal:
    @pytest.mark.parametrize("key", sorted(PARITY_TRACES))
    def test_budget_at_matches_reference(self, key):
        trace = PARITY_TRACES[key]
        signal = CarbonSignal(trace, **POWER)
        for time in range(0, 2 * trace.duration + 7):
            assert signal.budget_at(time) == reference_budget(trace, time, **POWER)

    @pytest.mark.parametrize("key", sorted(PARITY_TRACES))
    @given(begin=st.integers(0, 5000), length=st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_window_matches_reference(self, key, begin, length):
        trace = PARITY_TRACES[key]
        signal = CarbonSignal(trace, **POWER)
        expected = profile_from_time_unit_budgets(
            [reference_budget(trace, t, **POWER) for t in range(begin, begin + length)]
        )
        assert signal.window(begin, length).to_dict() == expected.to_dict()

    @pytest.mark.parametrize("key", sorted(PARITY_TRACES))
    def test_window_beyond_one_cycle(self, key):
        trace = PARITY_TRACES[key]
        signal = CarbonSignal(trace, **POWER)
        begin = trace.duration + trace.sample_duration // 2 + 3
        length = 2 * trace.duration + 11
        expected = profile_from_time_unit_budgets(
            [reference_budget(trace, t, **POWER) for t in range(begin, begin + length)]
        )
        assert signal.window(begin, length) == expected

    def test_flat_trace_is_one_interval(self):
        signal = CarbonSignal(PARITY_TRACES["flat-60"], **POWER)
        profile = signal.window(1000, 700)
        assert profile.num_intervals == 1
        # Spread 0 counts as 1, so every unit is at the cleanest fraction.
        assert profile.budget_at(0) == int(round(37 + 1.0 * 0.7 * 413))

    def test_negative_times_raise(self, signal):
        with pytest.raises(ValueError):
            signal.budget_at(-1)
        with pytest.raises(ValueError):
            signal.window(-1, 5)

    def test_budget_bounds(self, signal):
        for t in range(0, 3000, 37):
            budget = signal.budget_at(t)
            assert 100 <= budget <= 100 + int(0.8 * 400)

    def test_green_fraction_hits_both_extremes(self, signal):
        fractions = [signal.green_fraction(t) for t in range(0, 1440, 60)]
        assert min(fractions) == 0.0
        assert max(fractions) == 1.0

    def test_cyclic_beyond_trace(self, signal):
        assert signal.budget_at(10) == signal.budget_at(10 + 1440)

    def test_window_matches_per_unit_budgets(self, signal):
        profile = signal.window(100, 300)
        assert profile.horizon == 300
        for offset in range(0, 300, 23):
            assert profile.budget_at(offset) == signal.budget_at(100 + offset)

    def test_window_needs_positive_length(self, signal):
        with pytest.raises(Exception):
            signal.window(0, 0)

    def test_solar_noon_greener_than_midnight(self, signal):
        # Samples are hourly (duration 60): midnight is sample 0, noon sample 12.
        assert signal.budget_at(12 * 60) > signal.budget_at(0)


class TestForecasts:
    def test_oracle_equals_signal_window(self, signal):
        forecast = OracleForecast(signal)
        assert forecast.profile(75, 200) == signal.window(75, 200)

    def test_persistence_is_flat_at_current_budget(self, signal):
        forecast = PersistenceForecast(signal)
        profile = forecast.profile(300, 500)
        assert profile.num_intervals == 1
        assert profile.budget_at(0) == signal.budget_at(300)
        assert profile.horizon == 500

    def test_moving_average_averages_history(self, signal):
        forecast = MovingAverageForecast(signal, window=120)
        now = 600
        observed = [signal.budget_at(t) for t in range(now - 119, now + 1)]
        expected = int(round(sum(observed) / len(observed)))
        profile = forecast.profile(now, 50)
        assert profile.budget_at(0) == expected

    def test_moving_average_clips_at_time_zero(self, signal):
        forecast = MovingAverageForecast(signal, window=120)
        profile = forecast.profile(0, 10)
        assert profile.budget_at(0) == signal.budget_at(0)

    @pytest.mark.parametrize("key", sorted(PARITY_TRACES))
    @given(
        now=st.one_of(st.integers(0, 400), st.integers(0, 5000)),
        window=st.one_of(st.integers(1, 130), st.integers(1, 2000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_moving_average_matches_per_time_unit_reference(self, key, now, window):
        # Small `now` clips the window at time 0; windows of any length start
        # and end at sample boundaries or inside a sample.
        trace = PARITY_TRACES[key]
        forecast = MovingAverageForecast(CarbonSignal(trace, **POWER), window=window)
        observed = [
            reference_budget(trace, t, **POWER) for t in range(max(0, now - window + 1), now + 1)
        ]
        profile = forecast.profile(now, 7)
        assert profile.intervals()[0].budget == int(round(sum(observed) / len(observed)))
        assert (profile.num_intervals, profile.horizon) == (1, 7)

    @pytest.mark.parametrize("model", [PersistenceForecast, MovingAverageForecast])
    def test_negative_now_raises_value_error(self, signal, model):
        with pytest.raises(ValueError, match="time must be non-negative"):
            model(signal).profile(-1, 5)

    def test_factory_builds_all_models(self, signal):
        for name in FORECAST_MODELS:
            forecast = make_forecast(name, signal)
            assert forecast.name == name
            assert forecast.profile(10, 20).horizon == 20

    def test_factory_rejects_unknown(self, signal):
        with pytest.raises(SimulationError):
            make_forecast("arima", signal)
