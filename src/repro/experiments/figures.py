"""Per-figure/table generators reproducing the paper's evaluation artefacts.

Every public function of this module computes the numeric content behind one
figure or table of the paper from a list of :class:`RunRecord` objects (or,
for the ILP comparison and the local-search ablation, from instance specs it
runs itself).  The benchmark harness in ``benchmarks/`` calls these functions
and prints the resulting rows next to the paper's values.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.greedy import greedy_schedule
from repro.core.local_search import local_search
from repro.core.variants import BASELINE, LS_VARIANTS, get_variant
from repro.exact.ilp import ilp_optimal
from repro.experiments.instances import InstanceSpec, make_instance, single_processor_instance
from repro.experiments.metrics import (
    BoxplotStats,
    cost_ratio_boxplots,
    group_records,
    median_cost_ratio,
    performance_profile,
    rank_distribution,
    runtime_statistics,
    size_class_of,
)
from repro.exact.dp_single import dp_single_processor
from repro.io.records import RunRecord
from repro.platform_.presets import table1_rows
from repro.schedule.cost import carbon_cost
from repro.utils.rng import RNGLike

__all__ = [
    "table1_platform",
    "figure1_rank_distribution",
    "figure2_performance_profiles",
    "figure3_profiles_by_deadline",
    "figure4_median_cost_ratio",
    "figure5_cost_ratio_by_deadline",
    "figure6_cost_ratio_boxplot",
    "figure7_ilp_comparison",
    "figure8_running_times",
    "figure12_runtime_by_size",
    "figure13_runtime_by_deadline",
    "figure14_cost_ratio_by_cluster",
    "figure15_cost_ratio_by_scenario",
    "figure16_cost_ratio_by_size",
    "figure17_profiles_by_cluster",
    "table2_local_search_ablation",
    "dp_single_processor_comparison",
]


# --------------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------------- #
def table1_platform() -> List[Dict[str, object]]:
    """Return Table 1 (processor specifications) verbatim."""
    return table1_rows()


# --------------------------------------------------------------------------- #
# Figures 1–6, 8, 12–17: derived from a grid of run records
# --------------------------------------------------------------------------- #
def _main_variants() -> List[str]:
    """The variant set of the paper's main comparison: ASAP + the 8 LS variants."""
    return [BASELINE] + list(LS_VARIANTS)


def _run(instance, variants: Sequence[str]) -> Tuple[RunRecord, ...]:
    """Run *variants* on *instance* through the facade's job executor."""
    # Imported lazily: repro.api.jobs imports repro.experiments.instances,
    # which loads this package.
    from repro.api.execute import execute_job
    from repro.api.jobs import Job

    job = Job.from_instance(instance, variants=variants)
    _, records = execute_job(job)
    return records


def figure1_rank_distribution(records: Iterable[RunRecord]) -> Dict[str, Dict[int, float]]:
    """Figure 1: how often each LS variant (and ASAP) reaches each rank."""
    return rank_distribution(list(records), variants=_main_variants())


def figure2_performance_profiles(
    records: Iterable[RunRecord],
) -> Dict[str, List[Tuple[float, float]]]:
    """Figure 2: performance profiles of ASAP and the 8 LS variants."""
    return performance_profile(list(records), variants=_main_variants())


def figure3_profiles_by_deadline(
    records: Iterable[RunRecord],
) -> Dict[float, Dict[str, List[Tuple[float, float]]]]:
    """Figures 3 and 10: performance profiles split by deadline factor."""
    grouped = group_records(list(records), key=lambda record: record.deadline_factor)
    return {
        factor: performance_profile(group, variants=_main_variants())
        for factor, group in sorted(grouped.items())
    }


def figure4_median_cost_ratio(records: Iterable[RunRecord]) -> Dict[str, float]:
    """Figure 4: median cost ratio (variant / ASAP) of the 8 LS variants."""
    return median_cost_ratio(list(records), variants=LS_VARIANTS)


def figure5_cost_ratio_by_deadline(
    records: Iterable[RunRecord],
) -> Dict[float, Dict[str, float]]:
    """Figures 5 and 11: median cost ratio split by deadline factor."""
    grouped = group_records(list(records), key=lambda record: record.deadline_factor)
    return {
        factor: median_cost_ratio(group, variants=LS_VARIANTS)
        for factor, group in sorted(grouped.items())
    }


def figure6_cost_ratio_boxplot(records: Iterable[RunRecord]) -> Dict[str, BoxplotStats]:
    """Figure 6: boxplots of the cost ratios (variant / ASAP)."""
    return cost_ratio_boxplots(list(records), variants=LS_VARIANTS)


def figure8_running_times(records: Iterable[RunRecord]) -> Dict[str, Dict[str, float]]:
    """Figure 8: running-time statistics per algorithm variant.

    Within a job the eight ``-LS`` variants run as one lock-step local
    search; each ``-LS`` time is its greedy parent's time plus an equal
    share of that group's wall time (see
    :class:`~repro.core.scheduler.ScheduleResult`).
    """
    return runtime_statistics(list(records))


def figure12_runtime_by_size(
    records: Iterable[RunRecord],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 12: running times split by workflow size class."""
    grouped = group_records(list(records), key=size_class_of)
    return {
        size_class: runtime_statistics(group)
        for size_class, group in sorted(grouped.items())
    }


def figure13_runtime_by_deadline(
    records: Iterable[RunRecord],
) -> Dict[float, Dict[str, Dict[str, float]]]:
    """Figure 13: running times split by deadline factor."""
    grouped = group_records(list(records), key=lambda record: record.deadline_factor)
    return {
        factor: runtime_statistics(group) for factor, group in sorted(grouped.items())
    }


def figure14_cost_ratio_by_cluster(
    records: Iterable[RunRecord],
) -> Dict[str, Dict[str, float]]:
    """Figure 14: median cost ratio split by cluster (small / large)."""
    grouped = group_records(list(records), key=lambda record: record.cluster)
    return {
        cluster: median_cost_ratio(group, variants=LS_VARIANTS)
        for cluster, group in sorted(grouped.items())
    }


def figure15_cost_ratio_by_scenario(
    records: Iterable[RunRecord],
) -> Dict[str, Dict[str, float]]:
    """Figure 15: median cost ratio split by power-profile scenario (S1–S4)."""
    grouped = group_records(list(records), key=lambda record: record.scenario)
    return {
        scenario: median_cost_ratio(group, variants=LS_VARIANTS)
        for scenario, group in sorted(grouped.items())
    }


def figure16_cost_ratio_by_size(
    records: Iterable[RunRecord],
) -> Dict[str, Dict[str, float]]:
    """Figure 16: median cost ratio split by workflow size class."""
    grouped = group_records(list(records), key=size_class_of)
    return {
        size_class: median_cost_ratio(group, variants=LS_VARIANTS)
        for size_class, group in sorted(grouped.items())
    }


def figure17_profiles_by_cluster(
    records: Iterable[RunRecord],
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Figure 17: performance profiles split by cluster size."""
    grouped = group_records(list(records), key=lambda record: record.cluster)
    return {
        cluster: performance_profile(group, variants=_main_variants())
        for cluster, group in sorted(grouped.items())
    }


# --------------------------------------------------------------------------- #
# Figure 7: comparison against the ILP optimum
# --------------------------------------------------------------------------- #
def figure7_ilp_comparison(
    specs: Sequence[InstanceSpec],
    *,
    variants: Optional[Sequence[str]] = None,
    master_seed: RNGLike = None,
) -> Dict[str, Dict[str, object]]:
    """Figure 7: cost ratio ``ILP optimum / heuristic cost`` on small instances.

    Returns, per variant, the individual ratios and their median (the paper's
    red dots and boxplot).  A ratio of 1 means the heuristic found an optimal
    solution; when both costs are 0 the ratio is 1 by convention.  The
    heuristics run with the default
    :class:`~repro.core.scheduler.CaWoSched` configuration.
    """
    names = list(variants) if variants is not None else _main_variants()
    ratios: Dict[str, List[float]] = {name: [] for name in names}
    optima: List[int] = []
    for spec in specs:
        instance = make_instance(spec, master_seed=master_seed)
        optimal = carbon_cost(ilp_optimal(instance))
        optima.append(optimal)
        for record in _run(instance, names):
            if record.carbon_cost == 0:
                ratio = 1.0
            elif optimal == 0:
                ratio = 0.0
            else:
                ratio = optimal / record.carbon_cost
            ratios[record.variant].append(ratio)
    summary: Dict[str, Dict[str, object]] = {}
    for name in names:
        values = np.asarray(ratios[name], dtype=float)
        summary[name] = {
            "ratios": [float(v) for v in values],
            "median": float(np.median(values)) if values.size else float("nan"),
            "mean": float(values.mean()) if values.size else float("nan"),
            "optimal_hits": int(np.sum(values >= 1.0 - 1e-9)),
            "instances": int(values.size),
        }
    summary["_optima"] = {"values": optima}
    return summary


# --------------------------------------------------------------------------- #
# Table 2: local-search ablation
# --------------------------------------------------------------------------- #
#: The greedy variants of the paper's Table 2.
TABLE2_VARIANTS: Tuple[str, ...] = ("slackR", "slackWR", "pressR", "pressWR")


def table2_local_search_ablation(
    specs: Sequence[InstanceSpec],
    *,
    master_seed: RNGLike = None,
) -> Dict[str, Dict[str, float]]:
    """Table 2: cost ratio (with LS / without LS) per greedy variant.

    The paper runs the ablation on the atacseq and bacass subsets and reports
    the minimum, maximum and arithmetic mean of the ratio over the instances;
    a ratio of 0 means the local search reached zero carbon cost while the
    greedy schedule alone had positive cost.  The local search uses the
    default window ``µ`` (:data:`~repro.core.local_search.DEFAULT_WINDOW`).
    """
    results: Dict[str, List[float]] = {name: [] for name in TABLE2_VARIANTS}
    for spec in specs:
        instance = make_instance(spec, master_seed=master_seed)
        base_schedules = [
            greedy_schedule(
                instance,
                base=variant.base,
                weighted=variant.weighted,
                refined=variant.refined,
            )
            for variant in map(get_variant, TABLE2_VARIANTS)
        ]
        improved_schedules = local_search(base_schedules)
        for name, base_schedule, improved in zip(
            TABLE2_VARIANTS, base_schedules, improved_schedules
        ):
            base_cost = carbon_cost(base_schedule)
            improved_cost = carbon_cost(improved)
            if base_cost == 0:
                ratio = 1.0 if improved_cost == 0 else float("inf")
            else:
                ratio = improved_cost / base_cost
            results[name].append(ratio)
    table: Dict[str, Dict[str, float]] = {}
    for name, values in results.items():
        array = np.asarray(values, dtype=float)
        table[name] = {
            "min": float(array.min()) if array.size else float("nan"),
            "max": float(array.max()) if array.size else float("nan"),
            "avg": float(array.mean()) if array.size else float("nan"),
            "instances": int(array.size),
        }
    return table


# --------------------------------------------------------------------------- #
# Single-processor DP comparison (§4.1 / sanity experiment)
# --------------------------------------------------------------------------- #
def dp_single_processor_comparison(
    *,
    sizes: Sequence[int] = (4, 6, 8),
    scenarios: Sequence[str] = ("S1", "S3"),
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Compare the DP optimum against the heuristics on single-processor chains.

    Returns one row per (size, scenario) with the DP cost and the best
    heuristic cost; the heuristics can never beat the DP.  The deadline is
    :func:`~repro.experiments.instances.single_processor_instance`'s default
    (twice the ASAP makespan).
    """
    rows: List[Dict[str, object]] = []
    for size in sizes:
        for scenario in scenarios:
            instance = single_processor_instance(size, scenario=scenario, seed=seed)
            optimal = carbon_cost(dp_single_processor(instance))
            records = _run(instance, _main_variants())
            best = min(record.carbon_cost for record in records)
            asap_cost = next(
                record.carbon_cost for record in records if record.variant == BASELINE
            )
            rows.append(
                {
                    "tasks": size,
                    "scenario": scenario,
                    "dp_optimal": optimal,
                    "best_heuristic": best,
                    "asap": asap_cost,
                }
            )
    return rows
