"""Tests for the scenario generators S1–S4."""

from __future__ import annotations

import pytest

from repro.carbon.scenarios import (
    SCENARIOS,
    generate_power_profile,
    scenario_fraction,
)
from repro.utils.errors import InvalidProfileError


class TestScenarioShapes:
    def test_all_four_scenarios_exist(self):
        assert set(SCENARIOS) == {"S1", "S2", "S3", "S4"}

    def test_s1_peaks_in_the_middle(self):
        assert scenario_fraction("S1", 0.5) > scenario_fraction("S1", 0.0)
        assert scenario_fraction("S1", 0.5) > scenario_fraction("S1", 1.0)
        assert scenario_fraction("S1", 0.5) == pytest.approx(1.0)

    def test_s2_dips_in_the_middle(self):
        assert scenario_fraction("S2", 0.5) < scenario_fraction("S2", 0.0)
        assert scenario_fraction("S2", 0.0) == pytest.approx(1.0)
        assert scenario_fraction("S2", 1.0) == pytest.approx(1.0)

    def test_s3_starts_low(self):
        assert scenario_fraction("S3", 0.0) == pytest.approx(0.0)
        assert scenario_fraction("S3", 0.5) == pytest.approx(1.0)

    def test_s4_is_constant(self):
        values = {scenario_fraction("S4", x) for x in (0.0, 0.3, 0.7, 1.0)}
        assert len(values) == 1

    def test_fractions_bounded(self):
        for name in SCENARIOS:
            for step in range(11):
                value = scenario_fraction(name, step / 10)
                assert 0.0 <= value <= 1.0

    def test_unknown_scenario(self):
        with pytest.raises(InvalidProfileError):
            scenario_fraction("S9", 0.5)

    def test_out_of_range_x(self):
        with pytest.raises(ValueError):
            scenario_fraction("S1", 1.5)


class TestGenerateProfile:
    def test_horizon_and_interval_count(self):
        profile = generate_power_profile(
            "S1", 100, idle_power=10, work_power=50, num_intervals=10, rng=0
        )
        assert profile.horizon == 100
        assert profile.num_intervals == 10

    def test_budget_bounds_follow_paper(self):
        idle, work = 20, 100
        profile = generate_power_profile(
            "S3", 240, idle_power=idle, work_power=work, rng=1
        )
        for interval in profile:
            assert interval.budget >= idle
            assert interval.budget <= idle + 0.8 * work + 1  # +1 rounding slack

    def test_intervals_clamped_to_horizon(self):
        profile = generate_power_profile(
            "S4", 5, idle_power=1, work_power=10, num_intervals=24, rng=0
        )
        assert profile.num_intervals == 5
        assert profile.horizon == 5

    def test_s1_midday_higher_than_edges(self):
        profile = generate_power_profile(
            "S1", 240, idle_power=0, work_power=100, num_intervals=24, rng=0
        )
        budgets = [iv.budget for iv in profile]
        # The noise-free shape at each interval centre, and the noisy budgets.
        shape = [scenario_fraction("S1", (iv.begin + iv.end) / 480) for iv in profile]
        middle = len(profile) // 2
        for values in (shape, budgets):
            assert values[middle] > values[0]
            assert values[middle] > values[-1]

    def test_s4_constant_without_perturbation(self):
        profile = generate_power_profile("S4", 100, idle_power=5, work_power=40, rng=0)
        centres = [(iv.begin + iv.end) / 200 for iv in profile]
        assert len({scenario_fraction("S4", x) for x in centres}) == 1

    def test_determinism(self):
        a = generate_power_profile("S2", 120, idle_power=3, work_power=30, rng=5)
        b = generate_power_profile("S2", 120, idle_power=3, work_power=30, rng=5)
        assert a == b

    def test_unknown_scenario(self):
        with pytest.raises(InvalidProfileError):
            generate_power_profile("S7", 10, idle_power=1, work_power=1)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            generate_power_profile("S1", 0, idle_power=1, work_power=1)
