"""Evaluation metrics: ranks, performance profiles, cost ratios, runtimes.

These are the quantities plotted in the paper's evaluation figures:

* **Rank distribution** (Fig. 1): per instance, algorithms are ranked by
  carbon cost; equal costs share a rank and the following rank is skipped
  (competition ranking).
* **Performance profiles** (Figs. 2, 3, 10, 17): for each algorithm, the
  fraction of instances on which ``best cost / own cost ≥ τ``, as a function
  of ``τ`` (a cost of 0 counts as ratio 1 when the best cost is also 0, and as
  ratio 0 when only the algorithm's cost is positive).
* **Cost ratio to the baseline** (Figs. 4, 5, 6, 11, 14, 15, 16): the
  algorithm's cost divided by the ASAP baseline's cost on the same instance;
  the paper reports medians and boxplots (the geometric mean is unusable
  because ratios can be 0, the arithmetic mean because ratios can exceed 1).
* **Runtime statistics** (Figs. 8, 12, 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.variants import BASELINE
from repro.experiments.runner import records_by_instance
from repro.io.records import RunRecord

__all__ = [
    "BoxplotStats",
    "rank_distribution",
    "performance_profile",
    "cost_ratios_to_baseline",
    "median_cost_ratio",
    "boxplot_stats",
    "cost_ratio_boxplots",
    "runtime_statistics",
    "group_records",
    "size_class_of",
    "DEFAULT_TAU_GRID",
    "SIZE_CLASS_BOUNDARIES",
]

#: τ grid used when sampling performance-profile curves.
DEFAULT_TAU_GRID: Tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(0, 21))
#: Largest task counts of the "small" and "medium" size classes.
SIZE_CLASS_BOUNDARIES: Tuple[int, int] = (60, 150)


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary plus outliers (1.5 × IQR whiskers)."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: Tuple[float, ...]
    count: int


# --------------------------------------------------------------------------- #
# Ranks
# --------------------------------------------------------------------------- #
def rank_distribution(
    records: Iterable[RunRecord],
    *,
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[int, float]]:
    """Return, per variant, the fraction of instances on which it achieved each rank.

    Equal carbon costs share the same rank and the next rank is skipped
    (competition / "1224" ranking), exactly as in the paper's Figure 1.
    """
    grouped = records_by_instance(records)
    counts: Dict[str, Dict[int, float]] = {}
    num_instances = 0
    for instance_records in grouped.values():
        if variants is not None:
            instance_records = [r for r in instance_records if r.variant in variants]
        if not instance_records:
            continue
        num_instances += 1
        ordered = sorted(instance_records, key=lambda record: record.carbon_cost)
        rank = 0
        previous_cost: Optional[int] = None
        for position, record in enumerate(ordered, start=1):
            if previous_cost is None or record.carbon_cost != previous_cost:
                rank = position
                previous_cost = record.carbon_cost
            counts.setdefault(record.variant, {})
            counts[record.variant][rank] = counts[record.variant].get(rank, 0) + 1
    if num_instances:
        for variant in counts:
            for rank in counts[variant]:
                counts[variant][rank] /= num_instances
    return counts


# --------------------------------------------------------------------------- #
# Performance profiles
# --------------------------------------------------------------------------- #
def _cost_ratio_to_best(cost: float, best: float) -> float:
    """Return ``best / cost`` with the paper's conventions for zero costs."""
    if cost == 0:
        return 1.0
    if best == 0:
        return 0.0
    return best / cost


def performance_profile(
    records: Iterable[RunRecord],
    *,
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Return the performance-profile curve of every variant.

    For each ``τ`` of :data:`DEFAULT_TAU_GRID`, the curve value is the fraction of instances for
    which the variant's ratio (best cost / own cost) is at least ``τ``.
    Higher curves are better; the value at ``τ = 1`` is the fraction of
    instances on which the variant matches the best observed cost.
    """
    grouped = records_by_instance(records)
    ratios: Dict[str, List[float]] = {}
    for instance_records in grouped.values():
        if variants is not None:
            instance_records = [r for r in instance_records if r.variant in variants]
        if not instance_records:
            continue
        best = min(record.carbon_cost for record in instance_records)
        for record in instance_records:
            ratios.setdefault(record.variant, []).append(
                _cost_ratio_to_best(record.carbon_cost, best)
            )
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for variant, values in ratios.items():
        array = np.asarray(values, dtype=float)
        curves[variant] = [
            (float(tau), float(np.mean(array >= tau))) for tau in DEFAULT_TAU_GRID
        ]
    return curves


# --------------------------------------------------------------------------- #
# Cost ratios to the baseline
# --------------------------------------------------------------------------- #
def cost_ratios_to_baseline(
    records: Iterable[RunRecord],
    *,
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, List[float]]:
    """Return, per variant, the list of ``variant cost / ASAP cost`` ratios.

    Instances where both costs are 0 contribute a ratio of 1; instances where
    only the baseline is 0 are skipped (the ratio would be infinite — this is
    extremely rare because the baseline ignores the green budget entirely).
    """
    grouped = records_by_instance(records)
    ratios: Dict[str, List[float]] = {}
    for instance_records in grouped.values():
        baseline_cost: Optional[int] = None
        for record in instance_records:
            if record.variant == BASELINE:
                baseline_cost = record.carbon_cost
                break
        if baseline_cost is None:
            continue
        for record in instance_records:
            if record.variant == BASELINE:
                continue
            if variants is not None and record.variant not in variants:
                continue
            if baseline_cost == 0:
                if record.carbon_cost == 0:
                    ratios.setdefault(record.variant, []).append(1.0)
                continue
            ratios.setdefault(record.variant, []).append(
                record.carbon_cost / baseline_cost
            )
    return ratios


def median_cost_ratio(
    records: Iterable[RunRecord],
    *,
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Return the median cost ratio to the baseline per variant (Fig. 4)."""
    ratios = cost_ratios_to_baseline(records, variants=variants)
    return {
        variant: float(np.median(values)) for variant, values in ratios.items() if values
    }


def boxplot_stats(values: Sequence[float]) -> BoxplotStats:
    """Return the boxplot statistics of *values* (1.5 × IQR whiskers)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return BoxplotStats(
            minimum=float("nan"), q1=float("nan"), median=float("nan"),
            q3=float("nan"), maximum=float("nan"), whisker_low=float("nan"),
            whisker_high=float("nan"), outliers=(), count=0,
        )
    q1, median, q3 = (float(q) for q in np.percentile(array, [25, 50, 75]))
    iqr = q3 - q1
    low_limit = q1 - 1.5 * iqr
    high_limit = q3 + 1.5 * iqr
    inside = array[(array >= low_limit) & (array <= high_limit)]
    whisker_low = float(inside.min()) if inside.size else q1
    whisker_high = float(inside.max()) if inside.size else q3
    outliers = tuple(float(v) for v in array[(array < low_limit) | (array > high_limit)])
    return BoxplotStats(
        minimum=float(array.min()),
        q1=q1,
        median=median,
        q3=q3,
        maximum=float(array.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        count=int(array.size),
    )


def cost_ratio_boxplots(
    records: Iterable[RunRecord],
    *,
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, BoxplotStats]:
    """Return the boxplot of cost ratios per variant (Fig. 6)."""
    ratios = cost_ratios_to_baseline(records, variants=variants)
    return {variant: boxplot_stats(values) for variant, values in ratios.items()}


# --------------------------------------------------------------------------- #
# Runtime statistics
# --------------------------------------------------------------------------- #
def runtime_statistics(records: Iterable[RunRecord]) -> Dict[str, Dict[str, float]]:
    """Return min/median/mean/max runtime (seconds) per variant (Fig. 8)."""
    grouped: Dict[str, List[float]] = {}
    for record in records:
        grouped.setdefault(record.variant, []).append(record.runtime_seconds)
    stats: Dict[str, Dict[str, float]] = {}
    for variant, values in grouped.items():
        array = np.asarray(values, dtype=float)
        stats[variant] = {
            "min": float(array.min()),
            "median": float(np.median(array)),
            "mean": float(array.mean()),
            "max": float(array.max()),
            "count": int(array.size),
        }
    return stats


# --------------------------------------------------------------------------- #
# Grouping helpers
# --------------------------------------------------------------------------- #
def group_records(
    records: Iterable[RunRecord],
    key: Callable[[RunRecord], Hashable],
) -> Dict[Hashable, List[RunRecord]]:
    """Group records by an arbitrary key function (scenario, cluster, ...)."""
    grouped: Dict[Hashable, List[RunRecord]] = {}
    for record in records:
        grouped.setdefault(key(record), []).append(record)
    return grouped


def size_class_of(record: RunRecord) -> str:
    """Classify a record's instance into small / medium / large by task count.

    :data:`SIZE_CLASS_BOUNDARIES` split the scaled-down experiment grid into
    three classes, mirroring the paper's Figure 16 grouping (which uses
    200–4,000 / 8,000–18,000 / 20,000–30,000 tasks on the full-scale grid).
    """
    small, medium = SIZE_CLASS_BOUNDARIES
    if record.num_tasks <= small:
        return "small"
    if record.num_tasks <= medium:
        return "medium"
    return "large"
