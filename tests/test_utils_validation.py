"""Tests for the argument-validation helpers."""

from __future__ import annotations

import pytest

from repro.utils.validation import (
    check_in_range,
    check_non_negative_int,
    check_positive_int,
    check_probability,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(5, "x") == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-2, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(1.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_error_mentions_name(self):
        with pytest.raises(ValueError, match="num_tasks"):
            check_positive_int(0, "num_tasks")


class TestCheckNonNegativeInt:
    def test_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative_int(-1, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_non_negative_int("3", "x")


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability(1.2, "p")

    def test_rejects_below_zero(self):
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_probability(True, "p")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(1.0, "x", low=1.0, high=2.0) == 1.0

    def test_exclusive_low(self):
        with pytest.raises(ValueError):
            check_in_range(0.0, "x", low=0.0, low_inclusive=False)

    def test_exclusive_high(self):
        with pytest.raises(ValueError):
            check_in_range(2.0, "x", high=2.0, high_inclusive=False)

    def test_no_bounds_accepts_anything(self):
        assert check_in_range(-100.0, "x") == -100.0

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            check_in_range("a", "x", low=0)

    @pytest.mark.parametrize("bounds", [{}, {"low": 0.0}, {"high": 1.0}, {"low": 0.0, "low_inclusive": False}])
    def test_rejects_nan(self, bounds):
        # Every comparison with NaN is false, so no bound alone rejects it.
        with pytest.raises(ValueError, match="x must be a number"):
            check_in_range(float("nan"), "x", **bounds)
