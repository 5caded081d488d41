"""Tests for the evaluation metrics (ranks, profiles, cost ratios, runtimes)."""

from __future__ import annotations

import pytest

from repro.experiments.metrics import (
    boxplot_stats,
    cost_ratio_boxplots,
    cost_ratios_to_baseline,
    group_records,
    median_cost_ratio,
    performance_profile,
    rank_distribution,
    runtime_statistics,
    size_class_of,
)
from repro.experiments.runner import RunRecord


def record(instance: str, variant: str, cost: int, *, runtime: float = 0.01,
           tasks: int = 50, scenario: str = "S1", cluster: str = "small",
           factor: float = 2.0) -> RunRecord:
    return RunRecord(
        instance=instance, variant=variant, carbon_cost=cost,
        runtime_seconds=runtime, makespan=10, deadline=20, num_tasks=tasks,
        family="atacseq", cluster=cluster, scenario=scenario, deadline_factor=factor,
    )


@pytest.fixture
def synthetic_records():
    """Two instances, three algorithms with hand-picked costs."""
    return [
        # instance A: best is alg1 (10); alg2 ties with alg1; ASAP worst.
        record("A", "ASAP", 100),
        record("A", "alg1", 10),
        record("A", "alg2", 10),
        # instance B: best is alg2 (0); alg1 positive; ASAP positive.
        record("B", "ASAP", 50),
        record("B", "alg1", 25),
        record("B", "alg2", 0),
    ]


class TestRankDistribution:
    def test_competition_ranking_with_ties(self, synthetic_records):
        ranks = rank_distribution(synthetic_records)
        # Instance A: alg1 and alg2 share rank 1, ASAP gets rank 3 (rank 2 skipped).
        # Instance B: alg2 rank 1, alg1 rank 2, ASAP rank 3.
        assert ranks["alg1"] == {1: 0.5, 2: 0.5}
        assert ranks["alg2"] == {1: 1.0}
        assert ranks["ASAP"] == {3: 1.0}

    def test_fractions_sum_to_one_per_variant(self, synthetic_records):
        ranks = rank_distribution(synthetic_records)
        for variant, distribution in ranks.items():
            assert sum(distribution.values()) == pytest.approx(1.0)

    def test_variant_filter(self, synthetic_records):
        ranks = rank_distribution(synthetic_records, variants=["ASAP", "alg1"])
        assert set(ranks) == {"ASAP", "alg1"}
        # With alg2 removed, alg1 is rank 1 on both instances.
        assert ranks["alg1"][1] == pytest.approx(1.0)


class TestPerformanceProfile:
    def test_value_at_tau_one_is_best_fraction(self, synthetic_records):
        curves = performance_profile(synthetic_records)
        assert dict(curves["alg1"])[1.0] == pytest.approx(0.5)
        assert dict(curves["alg2"])[1.0] == pytest.approx(1.0)
        assert dict(curves["ASAP"])[1.0] == pytest.approx(0.0)

    def test_curves_monotonically_decrease_in_tau(self, synthetic_records):
        curves = performance_profile(synthetic_records)
        assert {0.0, 0.5, 1.0} <= {tau for tau, _ in curves["alg1"]}
        for curve in curves.values():
            values = [value for _, value in curve]
            assert values == sorted(values, reverse=True)

    def test_zero_cost_handling(self, synthetic_records):
        # On instance B the best cost is 0; alg1 has positive cost -> ratio 0,
        # so alg1's curve at tau=0.1 only counts instance A.
        curves = performance_profile(synthetic_records)
        assert dict(curves["alg1"])[0.1] == pytest.approx(0.5)


class TestCostRatios:
    def test_ratios_against_baseline(self, synthetic_records):
        ratios = cost_ratios_to_baseline(synthetic_records)
        assert ratios["alg1"] == [pytest.approx(0.1), pytest.approx(0.5)]
        assert ratios["alg2"] == [pytest.approx(0.1), pytest.approx(0.0)]

    def test_median(self, synthetic_records):
        medians = median_cost_ratio(synthetic_records)
        assert medians["alg1"] == pytest.approx(0.3)
        assert medians["alg2"] == pytest.approx(0.05)

    def test_baseline_zero_cost_skipped(self):
        records = [
            record("C", "ASAP", 0),
            record("C", "alg1", 5),
            record("C", "alg2", 0),
        ]
        ratios = cost_ratios_to_baseline(records)
        assert "alg1" not in ratios or ratios["alg1"] == []
        assert ratios["alg2"] == [pytest.approx(1.0)]

    def test_boxplots(self, synthetic_records):
        boxes = cost_ratio_boxplots(synthetic_records)
        assert boxes["alg1"].count == 2
        assert boxes["alg1"].minimum == pytest.approx(0.1)
        assert boxes["alg1"].maximum == pytest.approx(0.5)


class TestBoxplotStats:
    def test_five_number_summary(self):
        stats = boxplot_stats([1, 2, 3, 4, 100])
        assert stats.minimum == 1
        assert stats.maximum == 100
        assert stats.median == 3
        assert 100 in stats.outliers

    def test_empty_values(self):
        stats = boxplot_stats([])
        assert stats.count == 0

    def test_no_outliers_for_uniform_data(self):
        stats = boxplot_stats([5, 5, 5, 5])
        assert stats.outliers == ()
        assert stats.whisker_low == 5
        assert stats.whisker_high == 5


class TestRuntimeStatistics:
    def test_aggregation(self):
        records = [
            record("A", "alg", 1, runtime=0.1),
            record("B", "alg", 1, runtime=0.3),
        ]
        stats = runtime_statistics(records)["alg"]
        assert stats["min"] == pytest.approx(0.1)
        assert stats["max"] == pytest.approx(0.3)
        assert stats["mean"] == pytest.approx(0.2)
        assert stats["count"] == 2


class TestGrouping:
    def test_group_by_scenario(self, synthetic_records):
        grouped = group_records(synthetic_records, key=lambda r: r.scenario)
        assert set(grouped) == {"S1"}
        assert len(grouped["S1"]) == len(synthetic_records)

    def test_size_class_of(self):
        assert size_class_of(record("A", "x", 1, tasks=30)) == "small"
        assert size_class_of(record("A", "x", 1, tasks=100)) == "medium"
        assert size_class_of(record("A", "x", 1, tasks=500)) == "large"
        # The boundaries are inclusive upper bounds.
        assert size_class_of(record("A", "x", 1, tasks=60)) == "small"
        assert size_class_of(record("A", "x", 1, tasks=150)) == "medium"
