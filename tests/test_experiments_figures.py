"""Tests for the per-figure generators (on a very small grid)."""

from __future__ import annotations

import math

import pytest

from repro.experiments.figures import (
    dp_single_processor_comparison,
    figure1_rank_distribution,
    figure2_performance_profiles,
    figure3_profiles_by_deadline,
    figure4_median_cost_ratio,
    figure5_cost_ratio_by_deadline,
    figure6_cost_ratio_boxplot,
    figure7_ilp_comparison,
    figure8_running_times,
    figure12_runtime_by_size,
    figure13_runtime_by_deadline,
    figure14_cost_ratio_by_cluster,
    figure15_cost_ratio_by_scenario,
    figure16_cost_ratio_by_size,
    figure17_profiles_by_cluster,
    table1_platform,
    table2_local_search_ablation,
)
from repro.experiments.instances import InstanceSpec
from repro.experiments.runner import run_grid


@pytest.fixture(scope="module")
def grid_records():
    """A 2-family × 2-scenario × 2-deadline grid with all main variants."""
    specs = [
        InstanceSpec(family, 20, cluster, scenario, factor, seed=0)
        for family in ("atacseq", "eager")
        for cluster in ("small",)
        for scenario in ("S1", "S4")
        for factor in (1.0, 2.0)
    ]
    variants = ["ASAP", "slack-LS", "slackWR-LS", "press-LS", "pressWR-LS",
                "slack", "pressWR"]
    return run_grid(specs, variants=variants, master_seed=5)


class TestTable1:
    def test_six_rows_with_expected_columns(self):
        rows = table1_platform()
        assert len(rows) == 6
        assert set(rows[0]) == {"Processor Name", "Speed", "Pidle", "Pwork", "small", "large"}


class TestRecordDrivenFigures:
    def test_figure1(self, grid_records):
        distribution = figure1_rank_distribution(grid_records)
        # Only ASAP and -LS variants are part of the main comparison.
        assert all(name == "ASAP" or name.endswith("-LS") for name in distribution)
        for ranks in distribution.values():
            assert sum(ranks.values()) == pytest.approx(1.0)

    def test_figure2(self, grid_records):
        curves = figure2_performance_profiles(grid_records)
        for curve in curves.values():
            assert dict(curve)[0.0] == pytest.approx(1.0)

    def test_figure3_grouped_by_deadline(self, grid_records):
        by_deadline = figure3_profiles_by_deadline(grid_records)
        assert set(by_deadline) == {1.0, 2.0}

    def test_figure4_ratios_at_most_reasonable(self, grid_records):
        medians = figure4_median_cost_ratio(grid_records)
        assert medians
        for value in medians.values():
            assert 0.0 <= value <= 2.0

    def test_figure5_improves_with_deadline(self, grid_records):
        by_deadline = figure5_cost_ratio_by_deadline(grid_records)
        assert set(by_deadline) == {1.0, 2.0}
        # More deadline slack must not make the heuristics worse in the median
        # (allow a small tolerance for tiny sample effects).
        for variant in by_deadline[2.0]:
            if variant in by_deadline[1.0]:
                assert by_deadline[2.0][variant] <= by_deadline[1.0][variant] + 0.25

    def test_figure6_boxplots(self, grid_records):
        boxes = figure6_cost_ratio_boxplot(grid_records)
        for stats in boxes.values():
            assert stats.count > 0
            assert stats.minimum <= stats.median <= stats.maximum

    def test_figure8_runtimes(self, grid_records):
        stats = figure8_running_times(grid_records)
        assert "ASAP" in stats
        for values in stats.values():
            assert values["min"] <= values["median"] <= values["max"]

    def test_figure12_by_size(self, grid_records):
        by_size = figure12_runtime_by_size(grid_records)
        assert set(by_size) <= {"small", "medium", "large"}

    def test_figure13_by_deadline(self, grid_records):
        by_deadline = figure13_runtime_by_deadline(grid_records)
        assert set(by_deadline) == {1.0, 2.0}

    def test_figure14_by_cluster(self, grid_records):
        by_cluster = figure14_cost_ratio_by_cluster(grid_records)
        assert set(by_cluster) == {"small"}

    def test_figure15_by_scenario(self, grid_records):
        by_scenario = figure15_cost_ratio_by_scenario(grid_records)
        assert set(by_scenario) == {"S1", "S4"}

    def test_figure16_by_size(self, grid_records):
        by_size = figure16_cost_ratio_by_size(grid_records)
        assert set(by_size) <= {"small", "medium", "large"}

    def test_figure17_by_cluster(self, grid_records):
        by_cluster = figure17_profiles_by_cluster(grid_records)
        assert set(by_cluster) == {"small"}


class TestIlpComparison:
    def test_figure7_small_instances(self):
        specs = [InstanceSpec("bacass", 12, "small", "S1", 1.5, seed=0)]
        summary = figure7_ilp_comparison(
            specs, variants=["ASAP", "pressWR-LS"], master_seed=3
        )
        assert set(summary) == {"ASAP", "pressWR-LS", "_optima"}
        for name in ("ASAP", "pressWR-LS"):
            for ratio in summary[name]["ratios"]:
                assert 0.0 <= ratio <= 1.0 + 1e-9
        # The heuristic must be at least as close to the optimum as ASAP.
        assert summary["pressWR-LS"]["median"] >= summary["ASAP"]["median"] - 1e-9


class TestTable2:
    def test_ablation_ratios_at_most_one(self):
        specs = [
            InstanceSpec("atacseq", 20, "small", "S1", 1.0, seed=0),
            InstanceSpec("atacseq", 20, "small", "S3", 2.0, seed=0),
        ]
        table = table2_local_search_ablation(specs, master_seed=2)
        assert set(table) == {"slackR", "slackWR", "pressR", "pressWR"}
        for stats in table.values():
            assert stats["instances"] == 2
            assert stats["max"] <= 1.0 + 1e-9  # the LS is a hill climber
            assert stats["min"] >= 0.0
            assert not math.isnan(stats["avg"])


class TestDpComparison:
    def test_rows_and_optimality(self):
        rows = dp_single_processor_comparison(sizes=(4,), scenarios=("S1",), seed=1)
        assert len(rows) == 1
        row = rows[0]
        assert row["dp_optimal"] <= row["best_heuristic"]
        assert row["best_heuristic"] <= row["asap"]
