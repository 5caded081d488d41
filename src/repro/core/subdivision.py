"""Interval subdivision used by the refined greedy variants.

The greedy algorithm only ever starts tasks at the beginning of an interval.
With the *original* subdivision those candidate points are the boundaries of
the green-power profile.  The *refined* subdivision (variants with the ``R``
suffix) adds candidate points motivated by the single-processor optimality
result (Lemma 4.2): on each processor, every block of at most ``k``
consecutive tasks is tentatively aligned so that it starts or ends at one of
the original interval boundaries, and the start times of the block's tasks
under those alignments become additional subdivision points (§5.2 of the
paper, default ``k = 3``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import List, Optional, Set, Tuple

from repro.carbon.intervals import PowerProfile
from repro.mapping.enhanced_dag import EnhancedDAG
from repro.schedule.instance import ProblemInstance
from repro.utils.validation import check_positive_int

__all__ = [
    "original_subdivision",
    "refined_subdivision",
    "block_alignment_points",
    "DEFAULT_BLOCK_SIZE",
]

#: Default maximum block size of the refined subdivision (the paper's k).
DEFAULT_BLOCK_SIZE = 3


def original_subdivision(profile: PowerProfile) -> List[int]:
    """Return the start points of the original profile intervals."""
    return [interval.begin for interval in profile.intervals()]


def block_alignment_points(
    instance: ProblemInstance,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Set[int]:
    """Return the candidate task start times induced by block alignments.

    For every processor of the extended platform and every window of at most
    *block_size* consecutive tasks in that processor's fixed order, the block
    is tentatively placed so that it starts or ends at each original interval
    boundary; the implied start times of the tasks inside the block (clipped
    to the horizon) are collected.
    """
    block_size = check_positive_int(block_size, "block_size")
    dag = instance.dag
    sums = dag._memoised(("block_lag_sums", block_size), lambda: _lag_sums(dag, block_size))
    if sums is None:
        # No processor executes any task, so no block induces any candidate.
        return set()
    plus, minus = sums
    horizon = instance.profile.horizon
    points: Set[int] = set()
    for boundary in instance.profile.boundaries():
        # Keep 0 <= boundary + lag < T and 0 <= boundary - lag < T; both
        # rows are sorted and non-negative, and boundary <= T.
        points.update(boundary + lag for lag in plus[: bisect_left(plus, horizon - boundary)])
        low = bisect_right(minus, boundary - horizon)
        points.update(boundary - lag for lag in minus[low : bisect_right(minus, boundary, low)])
    return points


def _lag_sums(dag: EnhancedDAG, block_size: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Return the sorted distinct lags to add and to subtract, or ``None`` if no task runs."""
    # With prefix sums ``P`` of a processor's task durations, the start of the
    # r-th task of a block i..i+L-1 aligned at boundary ``b`` is
    # ``b + (P[i+r] - P[i])`` (start alignment) or ``b - (P[i+L] - P[i+r])``
    # (end alignment, subject to the block start ``b - (P[i+L] - P[i]) >= 0``).
    # Ranging over all valid (i, L, r), the emitted values collapse to
    # ``b + D`` for every duration-window sum ``D`` of at most ``block_size - 1``
    # consecutive tasks (not ending at the last task) and ``b - D`` for every
    # window sum of 1..block_size consecutive tasks: for ``b - D`` the
    # weakest block-start guard is attained with the block equal to the
    # window itself, where it coincides with the ``candidate >= 0`` filter.
    # The lags depend on the DAG alone, the boundaries they shift on the
    # profile.
    plus = {0}
    minus = set()
    for processor in dag.processors_with_tasks():
        tasks = dag.tasks_on(processor)
        num_tasks = len(tasks)
        prefix = list(accumulate((dag.duration(task) for task in tasks), initial=0))
        for lag in range(1, min(block_size, num_tasks) + 1):
            if lag < block_size and lag < num_tasks:
                plus.update(prefix[i + lag] - prefix[i] for i in range(num_tasks - lag))
            minus.update(prefix[i + lag] - prefix[i] for i in range(num_tasks + 1 - lag))
    if not minus:
        return None
    return tuple(sorted(plus)), tuple(sorted(minus))


def refined_subdivision(
    instance: ProblemInstance,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[int]:
    """Return the refined interval start points (sorted, deduplicated).

    The result always contains the original interval boundaries; the refined
    variants of the greedy algorithm use these points both as candidate task
    start times and as boundaries of the budget bookkeeping.
    """
    points = set(original_subdivision(instance.profile))
    points |= block_alignment_points(instance, block_size=block_size)
    return sorted(points)
