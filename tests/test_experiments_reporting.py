"""Tests for the plain-text reporting helpers."""

from __future__ import annotations

from repro.experiments.reporting import (
    format_mapping,
    format_performance_profiles,
    format_rank_distribution,
    format_table,
)


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table([["a", 1.5], ["bb", 22.25]], ["name", "value"])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.500" in text
        assert "22.250" in text
        assert len(lines) == 4

    def test_custom_float_format(self):
        text = format_table([["x", 0.123456]], ["k", "v"], float_format="{:.1f}")
        assert "0.1" in text


class TestFormatMapping:
    def test_sorted_by_value(self):
        text = format_mapping({"b": 2.0, "a": 1.0})
        lines = text.splitlines()
        assert lines[2].startswith("a")
        assert lines[3].startswith("b")


class TestFigureFormatters:
    def test_rank_distribution_formatting(self):
        text = format_rank_distribution({"ASAP": {1: 0.25, 3: 0.75}, "press": {1: 0.75}})
        assert "rank 1" in text
        assert "ASAP" in text
        assert "75.0" in text

    def test_performance_profile_formatting(self):
        profiles = {"press": [(0.5, 1.0), (1.0, 0.6)], "ASAP": [(0.5, 0.2), (1.0, 0.0)]}
        text = format_performance_profiles(profiles)
        assert "τ=0.5" in text
        assert "press" in text
