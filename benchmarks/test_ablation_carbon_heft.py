"""Extension ablation — plain HEFT vs carbon-aware HEFT as the first pass.

The paper's future-work section (§7) proposes a two-pass approach: a
carbon-aware mapping/ordering pass followed by the schedule optimisation this
paper contributes.  This benchmark compares the final carbon cost of
``pressWR-LS`` when the fixed mapping comes from plain HEFT (``power_weight``
0) versus the carbon-aware HEFT first pass (several power weights), on the
same workflows and power profiles.
"""

from __future__ import annotations

import numpy as np

from repro.carbon.scenarios import generate_power_profile
from repro.core.scheduler import CaWoSched
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.presets import scaled_small_cluster
from repro.schedule.asap import asap_makespan
from repro.schedule.instance import ProblemInstance
from repro.experiments.reporting import format_table
from repro.workflow.generators import generate_workflow

from bench_utils import write_figure_output

POWER_WEIGHTS = (0.0, 0.3, 0.6)
CASES = [("atacseq", 40, "S1", seed) for seed in (0, 1)] + [
    ("eager", 40, "S3", seed) for seed in (0, 1)
]


def run_comparison():
    cluster = scaled_small_cluster()
    results = {weight: [] for weight in POWER_WEIGHTS}
    for family, size, scenario, seed in CASES:
        workflow = generate_workflow(family, size, rng=seed)
        for weight in POWER_WEIGHTS:
            first_pass = heft_mapping(workflow, cluster, power_weight=weight)
            dag = build_enhanced_dag(first_pass.mapping, rng=seed)
            deadline = 2 * asap_makespan(dag)
            profile = generate_power_profile(
                scenario, deadline,
                idle_power=dag.platform.total_idle_power(),
                work_power=dag.platform.total_work_power(),
                num_intervals=max(1, deadline // 8), rng=seed,
            )
            instance = ProblemInstance(dag, profile)
            results[weight].append(CaWoSched().run(instance, "pressWR-LS").carbon_cost)
    return {
        weight: {"mean_cost": float(np.mean(costs)), "costs": costs}
        for weight, costs in results.items()
    }


def test_ablation_carbon_heft(benchmark, output_dir):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    rows = [
        ["plain HEFT" if weight == 0.0 else f"carbon-aware HEFT (λ={weight:g})",
         values["mean_cost"]]
        for weight, values in sorted(results.items())
    ]
    text = format_table(rows, ["first pass", "mean carbon cost after pressWR-LS"])
    print("\nExtension — two-pass scheduling: first-pass mapping comparison\n" + text)
    write_figure_output(output_dir, "ablation_carbon_heft", text)

    # Every configuration produces valid, non-negative costs; the comparison
    # itself is the result (the paper leaves the two-pass design as future
    # work, so no particular winner is asserted).
    for values in results.values():
        assert all(cost >= 0 for cost in values["costs"])
