"""Tests for PowerProfile and Interval."""

from __future__ import annotations

import pytest

from repro.carbon.intervals import Interval, PowerProfile
from repro.utils.errors import InvalidProfileError
from schedule_helpers import profile_from_time_unit_budgets


class TestInterval:
    def test_length(self):
        assert Interval(3, 8, 5).length == 5

    def test_invalid_length(self):
        with pytest.raises(InvalidProfileError):
            Interval(5, 5, 1)

    def test_negative_budget(self):
        with pytest.raises(InvalidProfileError):
            Interval(0, 5, -1)

    def test_equality_and_hash(self):
        assert Interval(0, 5, 2) == Interval(0, 5, 2)
        assert len({Interval(0, 5, 2), Interval(0, 5, 2)}) == 1


    def test_end_and_budget_must_fit_int64(self):
        assert Interval(0, 2**63 - 1, 2**63 - 1).budget == 2**63 - 1
        with pytest.raises(InvalidProfileError, match="at most"):
            Interval(0, 5, 2**63)
        with pytest.raises(InvalidProfileError, match="at most"):
            Interval(2**63 - 2, 2**63, 1)
        # The intervals' ends accumulate: each length fits, their sum does not.
        with pytest.raises(InvalidProfileError, match="at most"):
            PowerProfile([2**62, 2**62], [1, 1])


class TestPowerProfileConstruction:
    def test_basic(self):
        profile = PowerProfile([5, 5], [10, 2])
        assert profile.horizon == 10
        assert profile.num_intervals == 2
        assert profile.boundaries() == [0, 5, 10]

    def test_mismatched_lengths(self):
        with pytest.raises(InvalidProfileError):
            PowerProfile([5, 5], [10])

    def test_empty(self):
        with pytest.raises(InvalidProfileError):
            PowerProfile([], [])

    def test_non_positive_length(self):
        with pytest.raises(InvalidProfileError):
            PowerProfile([5, 0], [1, 1])

    @pytest.mark.parametrize(
        "lengths, budgets", [([2.5], [1]), ([2], [2.9]), ([True], [1]), ([2], [True]), (["2"], [1])]
    )
    def test_non_integer_length_or_budget_rejected(self, lengths, budgets):
        # 2.5 is not truncated to 2, nor true read as 1.
        with pytest.raises(InvalidProfileError, match="must be an integer"):
            PowerProfile(lengths, budgets)

    def test_constant(self):
        profile = PowerProfile.constant(20, 6)
        assert profile.num_intervals == 1
        assert profile.budget_at(19) == 6

    def test_from_time_unit_budgets_merges_runs(self):
        # The tests' builder of profiles from per-time-unit budgets.
        profile = profile_from_time_unit_budgets([3, 3, 3, 1, 1, 4])
        assert profile.num_intervals == 3
        assert [iv.length for iv in profile] == [3, 2, 1]
        assert [iv.budget for iv in profile] == [3, 1, 4]


class TestPowerProfileAccessors:
    @pytest.fixture
    def profile(self) -> PowerProfile:
        return PowerProfile([4, 3, 3], [5, 1, 8])

    def test_budget_at(self, profile):
        assert profile.budget_at(0) == 5
        assert profile.budget_at(3) == 5
        assert profile.budget_at(4) == 1
        assert profile.budget_at(9) == 8

    def test_budget_at_out_of_range(self, profile):
        with pytest.raises(InvalidProfileError):
            profile.budget_at(10)
        with pytest.raises(InvalidProfileError):
            profile.budget_at(-1)

    def test_interval_index_at(self, profile):
        assert profile.interval_index_at(0) == 0
        assert profile.interval_index_at(6) == 1
        assert profile.interval_index_at(7) == 2

    def test_budgets_per_time_unit(self, profile):
        budgets = profile.budgets_per_time_unit()
        assert budgets.shape == (10,)
        assert list(budgets) == [5, 5, 5, 5, 1, 1, 1, 8, 8, 8]

    def test_iteration_and_len(self, profile):
        assert len(profile) == 3
        assert [iv.budget for iv in profile] == [5, 1, 8]


class TestPowerProfileTransformations:
    @pytest.fixture
    def profile(self) -> PowerProfile:
        return PowerProfile([4, 3, 3], [5, 1, 8])

    def test_equality(self, profile):
        assert profile == PowerProfile([4, 3, 3], [5, 1, 8])
        assert profile != PowerProfile([4, 3, 3], [5, 1, 9])
