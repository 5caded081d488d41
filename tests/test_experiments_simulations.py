"""Tests for the simulation sweep helpers (:mod:`repro.experiments.simulations`)."""

from __future__ import annotations

from repro.experiments.simulations import (
    default_sim_grid,
    run_sim_grid,
    summarize_sim_reports,
)
from repro.sim import SimulationConfig


def tiny_grid():
    return default_sim_grid(
        policies=("fifo", "carbon"),
        forecasts=("oracle", "persistence"),
        rates=(0.005,),
        horizon=360,
        seed=4,
        slots=2,
        tasks=(8,),
        variant="pressWR",
    )


class TestDefaultSimGrid:
    def test_cartesian_product(self):
        grid = tiny_grid()
        assert len(grid) == 4
        cells = {(config.policy, config.forecast, config.rate) for config in grid}
        assert cells == {
            ("fifo", "oracle", 0.005),
            ("fifo", "persistence", 0.005),
            ("carbon", "oracle", 0.005),
            ("carbon", "persistence", 0.005),
        }

    def test_common_overrides_reach_every_cell(self):
        for config in tiny_grid():
            assert config.slots == 2
            assert config.tasks == (8,)
            assert config.variant == "pressWR"


class TestRunSimGrid:
    def test_sequential_results_in_input_order(self):
        grid = tiny_grid()
        reports = run_sim_grid(grid)
        assert len(reports) == len(grid)
        for config, report in zip(grid, reports):
            assert report.config == config.to_dict()

    def test_process_pool_matches_sequential(self):
        grid = tiny_grid()[:2]
        sequential = run_sim_grid(grid)
        pooled = run_sim_grid(grid, jobs=2)
        assert [r.to_dict() for r in sequential] == [r.to_dict() for r in pooled]


class TestSummaries:
    def test_one_row_per_report_with_gap(self):
        grid = tiny_grid()[:2]
        reports = run_sim_grid(grid)
        rows = summarize_sim_reports(reports)
        assert len(rows) == 2
        for (config, row) in zip(grid, rows):
            assert row[0] == config.policy
            assert row[1] == config.forecast
            assert row[2] == config.rate
            assert isinstance(row[3], int)

    def test_empty_reports_summarised_gracefully(self):
        config = SimulationConfig(horizon=100, rate=0.0, tasks=(8,), variant="pressWR")
        rows = summarize_sim_reports(run_sim_grid([config]))
        assert rows == [["fifo", "oracle", 0.0, 0, 0.0, 0.0, 1.0]]
