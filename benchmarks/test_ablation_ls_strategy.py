"""Ablation — first-improvement versus best-improvement local search.

The paper chooses first improvement because preliminary experiments showed no
significant quality difference while being faster.  This ablation reproduces
that comparison on the scaled-down instances.
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
    InstanceSpec("atacseq", 40, "small", scenario, 1.5, seed=seed)
    for scenario in ("S1", "S4")
    for seed in (0, 1, 2)
]


def run_comparison():
    instances = [make_instance(spec, master_seed=41) for spec in SPECS]
    greedy = [
        greedy_schedule(instance, base="pressure", weighted=True, refined=True)
        for instance in instances
    ]
    results = {}
    for label, best in (("first-improvement", False), ("best-improvement", True)):
        costs = []
        started = time.perf_counter()
        for schedule in greedy:
            costs.append(carbon_cost(local_search([schedule], best_improvement=best)[0]))
        elapsed = time.perf_counter() - started
        results[label] = {"mean_cost": float(np.mean(costs)), "total_seconds": elapsed}
    return results


def test_ablation_ls_strategy(benchmark, output_dir):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    rows = [
        [label, values["mean_cost"], values["total_seconds"]]
        for label, values in results.items()
    ]
    text = format_table(rows, ["strategy", "mean carbon cost", "total seconds"])
    print("\nAblation — local-search move strategy\n" + text)
    write_figure_output(output_dir, "ablation_ls_strategy", text)

    first = results["first-improvement"]["mean_cost"]
    best = results["best-improvement"]["mean_cost"]
    # Quality difference is small (the paper's observation): within 25 % of
    # each other, measured on the mean cost.
    reference = max(first, best, 1.0)
    assert abs(first - best) <= 0.25 * reference
