"""Simulation sweeps: grids of online-simulation configurations.

The offline experiments sweep instance grids with :func:`run_grid`; this
module is its online counterpart.  A simulation grid is the Cartesian
product of policies × forecast models × arrival rates (each cell a full
:class:`~repro.sim.engine.SimulationConfig` sharing the workload, trace and
seed), and :func:`run_sim_grid` executes the cells — sequentially or fanned
out over a worker pool, with identical results either way, because every
cell's randomness derives from its own configuration only.

Only plain configuration and report dictionaries cross the worker boundary,
mirroring the process backend of :mod:`repro.api`.

The simulation stack (:mod:`repro.sim`, :mod:`repro.api`) is imported
lazily inside the functions: those packages themselves import experiment
modules, and this package's ``__init__`` re-exports this module, so eager
imports here would be circular.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimulationConfig
    from repro.sim.report import SimReport

__all__ = ["default_sim_grid", "run_sim_grid", "summarize_sim_reports"]


def default_sim_grid(
    *,
    policies: Sequence[str] = ("fifo", "edf", "carbon", "reschedule"),
    forecasts: Sequence[str] = ("oracle", "persistence", "moving-average"),
    rates: Sequence[float] = (0.01,),
    horizon: int = 1440,
    seed: int = 0,
    **common: object,
) -> List["SimulationConfig"]:
    """Return one configuration per (policy, forecast, rate) grid cell.

    Additional keyword arguments are passed to every
    :class:`SimulationConfig` unchanged (workload, trace, slots, ...).
    """
    from repro.sim.engine import SimulationConfig

    grid: List[SimulationConfig] = []
    for policy in policies:
        for forecast in forecasts:
            for rate in rates:
                grid.append(
                    SimulationConfig(
                        horizon=int(horizon),
                        seed=int(seed),
                        policy=str(policy),
                        forecast=str(forecast),
                        rate=float(rate),
                        **common,
                    )
                )
    return grid


def _run_sim_cell(config_data: Mapping[str, object]) -> Dict[str, object]:
    """Run one grid cell (worker function of the jobs pool).

    Module-level so the process pool can pickle it; input and output are
    plain dictionaries only.
    """
    from repro.sim.engine import SimulationConfig, simulate

    config = SimulationConfig.from_dict(config_data)
    return simulate(config).to_dict()


def run_sim_grid(
    configs: Iterable["SimulationConfig"],
    *,
    jobs: int = 1,
) -> List["SimReport"]:
    """Run every simulation of the grid, optionally over a worker pool.

    Parameters
    ----------
    configs:
        The grid cells (see :func:`default_sim_grid`).
    jobs:
        Number of worker processes; ``1`` runs sequentially.  Results are
        identical in either mode and come back in input order — each cell is
        a pure function of its configuration.
    """
    from repro.api.execute import parallel_map
    from repro.sim.report import SimReport

    payloads = [config.to_dict() for config in configs]
    raw = parallel_map(_run_sim_cell, payloads, jobs=jobs)
    return [SimReport.from_dict(entry) for entry in raw]


def summarize_sim_reports(reports: Sequence["SimReport"]) -> List[List[object]]:
    """Return one summary row per report (for :func:`~repro.experiments.reporting.format_table`).

    Columns: policy, forecast, rate, completed workflows, deadline-miss
    rate, mean queueing delay, carbon gap (online / oracle).
    """
    rows: List[List[object]] = []
    for report in reports:
        config = report.config
        metrics = report.metrics
        rows.append(
            [
                config.get("policy", "?"),
                config.get("forecast", "?"),
                config.get("rate", 0.0),
                int(metrics.get("workflows", 0)),
                metrics.get("deadline_miss_rate", 0.0),
                metrics.get("mean_queueing_delay", 0.0),
                metrics.get("carbon_gap", 1.0),
            ]
        )
    return rows
