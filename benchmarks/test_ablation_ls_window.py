"""Ablation — local-search window ``µ``.

The paper fixes ``µ = 10``.  This ablation sweeps the window for the pressWR
greedy schedule and reports the mean carbon cost after the local search plus
the time spent, showing the diminishing returns of larger windows.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.greedy import greedy_schedule
from repro.core.local_search import local_search
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.reporting import format_table
from repro.schedule.cost import carbon_cost

from bench_utils import write_figure_output

SPECS = [
    InstanceSpec("eager", 40, "small", scenario, 1.5, seed=seed)
    for scenario in ("S1", "S3")
    for seed in (0, 1, 2)
]
WINDOWS = (0, 5, 10, 20)


def run_sweep():
    instances = [make_instance(spec, master_seed=31) for spec in SPECS]
    greedy = [
        greedy_schedule(instance, base="pressure", weighted=True, refined=True)
        for instance in instances
    ]
    results = {}
    for window in WINDOWS:
        costs = []
        started = time.perf_counter()
        for schedule in greedy:
            costs.append(carbon_cost(local_search([schedule], window=window)[0]))
        elapsed = time.perf_counter() - started
        results[window] = {"mean_cost": float(np.mean(costs)), "total_seconds": elapsed}
    results["greedy"] = {
        "mean_cost": float(np.mean([carbon_cost(s) for s in greedy])),
        "total_seconds": 0.0,
    }
    return results


def test_ablation_ls_window(benchmark, output_dir):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        [str(key), values["mean_cost"], values["total_seconds"]]
        for key, values in results.items()
    ]
    text = format_table(rows, ["window µ", "mean carbon cost", "total seconds"])
    print("\nAblation — local-search window µ (pressWR greedy base)\n" + text)
    write_figure_output(output_dir, "ablation_ls_window", text)

    # Larger windows can only help (each window's moves are a superset).
    assert results[20]["mean_cost"] <= results[0]["mean_cost"] + 1e-9
    assert results[10]["mean_cost"] <= results[0]["mean_cost"] + 1e-9
    # The window-0 local search cannot change the greedy schedule.
    assert results[0]["mean_cost"] == results["greedy"]["mean_cost"]
