"""Ablation — block size ``k`` of the refined interval subdivision.

The paper fixes ``k = 3`` and argues that this already creates a lot of
subintervals.  This ablation sweeps ``k ∈ {1, 2, 3, 4}`` for the pressWR-LS
variant and reports the mean carbon cost and runtime, so the trade-off between
subdivision density and scheduling quality can be inspected.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.reporting import format_table
from repro.schedule.cost import carbon_cost

from bench_utils import write_figure_output

SPECS = [
    InstanceSpec("atacseq", 40, "small", scenario, 2.0, seed=seed)
    for scenario in ("S1", "S3")
    for seed in (0, 1, 2)
]
BLOCK_SIZES = (1, 2, 3, 4)


def run_sweep():
    instances = [make_instance(spec, master_seed=21) for spec in SPECS]
    results = {}
    for block_size in BLOCK_SIZES:
        scheduler = CaWoSched(block_size=block_size)
        costs = []
        started = time.perf_counter()
        for instance in instances:
            costs.append(carbon_cost(scheduler.run(instance, "pressWR-LS").schedule))
        elapsed = time.perf_counter() - started
        results[block_size] = {
            "mean_cost": float(np.mean(costs)),
            "total_seconds": elapsed,
        }
    return results


def test_ablation_block_size(benchmark, output_dir):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        [k, values["mean_cost"], values["total_seconds"]]
        for k, values in sorted(results.items())
    ]
    text = format_table(rows, ["block size k", "mean carbon cost", "total seconds"])
    print("\nAblation — refined subdivision block size k (pressWR-LS)\n" + text)
    write_figure_output(output_dir, "ablation_block_size", text)

    # A finer subdivision never removes candidate start times, so quality must
    # not systematically degrade when k grows from 1 to 3.
    assert results[3]["mean_cost"] <= results[1]["mean_cost"] * 1.25 + 1e-9
