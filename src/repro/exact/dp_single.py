"""Optimal dynamic program for the single-processor case (Theorem 4.1).

With a single processor the task order is fixed (it is the fixed mapping's
order), so a schedule is fully described by the tasks' end times.  The paper's
DP computes

``Opt(i, t) = min_{s ≤ t − ω(v_i)} Opt(i − 1, s) + cc(v_i, t)``

where ``cc(v_i, t)`` is the (schedule-dependent part of the) carbon cost of
executing ``v_i`` during ``[t − ω(v_i), t)``.  Trying every integer end time
``t ∈ [1, T]`` gives the pseudo-polynomial variant; restricting the candidate
end times to the set ``E'`` derived from block alignments with the interval
boundaries (Lemma 4.2) gives the fully polynomial variant.  Both produce an
optimal schedule.

Costs are split into a schedule-independent baseline (idle power versus the
budget over the whole horizon) plus the per-task increments
``max(P_idle + P_work − G_t, 0) − max(P_idle − G_t, 0)``; this keeps the DP
additive while matching the exact carbon-cost definition.
"""

from __future__ import annotations

import bisect
from typing import Dict, Hashable, List, Sequence, Set, Tuple

import numpy as np

from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import SolverError

__all__ = [
    "dp_single_processor",
    "single_processor_task_chain",
    "candidate_end_times",
]


def single_processor_task_chain(instance: ProblemInstance) -> List[Hashable]:
    """Return the fixed task chain of a single-processor instance.

    Raises
    ------
    SolverError
        If the instance uses more than one processor (including link
        processors) — the DP only applies to the uniprocessor case.
    """
    dag = instance.dag
    processors = dag.processors_with_tasks()
    if len(processors) != 1:
        raise SolverError(
            f"the single-processor DP requires exactly one used processor, "
            f"found {len(processors)}"
        )
    chain = dag.tasks_on(processors[0])
    if len(chain) != dag.num_nodes:
        raise SolverError("not all tasks are mapped to the single processor")
    # The chain must itself be consistent with the precedence constraints;
    # EnhancedDAG construction guarantees this (it would be cyclic otherwise).
    return list(chain)


def candidate_end_times(
    instance: ProblemInstance,
    chain: Sequence[Hashable],
    *,
    polynomial: bool = True,
) -> List[Set[int]]:
    """Return the candidate end-time set of every task of the chain.

    With ``polynomial=False`` every integer in ``[duration prefix, T]`` is a
    candidate (pseudo-polynomial DP).  With ``polynomial=True`` the set ``E'``
    of Lemma 4.2 is built: for every block of consecutive tasks containing the
    task and every interval boundary, the task's end time under the "block
    starts at the boundary" and "block ends at the boundary" alignments.
    """
    dag = instance.dag
    horizon = instance.deadline
    durations = [dag.duration(task) for task in chain]
    n = len(chain)
    prefix = [0] * (n + 1)
    for index, duration in enumerate(durations):
        prefix[index + 1] = prefix[index] + duration

    if not polynomial:
        return [
            {t for t in range(prefix[index + 1], horizon + 1)}
            for index in range(n)
        ]

    boundaries = instance.profile.boundaries()
    candidates: List[Set[int]] = [set() for _ in range(n)]
    for block_start_idx in range(n):
        for block_end_idx in range(block_start_idx, n):
            block_duration = prefix[block_end_idx + 1] - prefix[block_start_idx]
            for boundary in boundaries:
                # Alignment 1: the block starts at the boundary.
                start_of_block = boundary
                # Alignment 2: the block ends at the boundary.
                start_if_end_aligned = boundary - block_duration
                for block_begin in (start_of_block, start_if_end_aligned):
                    if block_begin < 0:
                        continue
                    for index in range(block_start_idx, block_end_idx + 1):
                        end_time = block_begin + (prefix[index + 1] - prefix[block_start_idx])
                        if prefix[index + 1] <= end_time <= horizon:
                            candidates[index].add(end_time)
    # Guarantee non-empty candidate sets even in degenerate cases.
    for index in range(n):
        candidates[index].add(prefix[index + 1])
    return candidates


def dp_single_processor(
    instance: ProblemInstance,
    *,
    polynomial: bool = True,
) -> Schedule:
    """Return an optimal schedule of a single-processor instance.

    Parameters
    ----------
    instance:
        A problem instance whose tasks are all mapped to one processor
        (no communications).
    polynomial:
        Use the polynomial candidate end-time set (Lemma 4.2) instead of all
        integer end times.  Both settings are optimal; the pseudo-polynomial
        variant is exposed for cross-checking in tests.

    Returns
    -------
    Schedule
        An optimal schedule named ``"DP"`` (or ``"DP-pseudo"``).
    """
    chain = single_processor_task_chain(instance)
    dag = instance.dag
    horizon = instance.deadline
    durations = [dag.duration(task) for task in chain]
    n = len(chain)

    spec = dag.processor_spec(chain[0])
    budgets = instance.profile.budgets_per_time_unit()
    idle_total = instance.total_idle_power()
    # Per-time-unit cost increment of having the processor *active*.
    active_cost = np.maximum(idle_total + spec.p_work - budgets, 0) - np.maximum(
        idle_total - budgets, 0
    )
    increment_prefix = np.concatenate(([0], np.cumsum(active_cost)))
    baseline = int(np.maximum(idle_total - budgets, 0).sum())

    def execution_increment(end_time: int, duration: int) -> int:
        start = end_time - duration
        return int(increment_prefix[end_time] - increment_prefix[start])

    candidates = candidate_end_times(instance, chain, polynomial=polynomial)

    # DP over tasks; states are candidate end times of the current task.
    previous_times: List[int] = [0]
    previous_costs: List[int] = [0]
    previous_prefix_min: List[Tuple[int, int]] = [(0, 0)]  # (cost, argmin index)
    parents: List[Dict[int, int]] = []  # per task: end time -> chosen previous end time

    for index in range(n):
        duration = durations[index]
        times = sorted(candidates[index])
        costs: List[int] = []
        parent: Dict[int, int] = {}
        kept_times: List[int] = []
        for end_time in times:
            if end_time > horizon:
                continue
            latest_previous = end_time - duration
            if latest_previous < 0:
                continue
            # Find the best previous end time <= latest_previous.
            position = bisect.bisect_right(previous_times, latest_previous) - 1
            if position < 0:
                continue
            best_cost, best_index = previous_prefix_min[position]
            if best_cost == _INFEASIBLE:
                continue
            total = best_cost + execution_increment(end_time, duration)
            kept_times.append(end_time)
            costs.append(total)
            parent[end_time] = previous_times[best_index]
        if not kept_times:
            raise SolverError(
                f"no feasible end time for task {chain[index]!r}; "
                f"the candidate set is too restrictive"
            )
        parents.append(parent)
        previous_times = kept_times
        previous_costs = costs
        previous_prefix_min = _prefix_minima(costs)

    # Optimal final state and backtracking.
    best_final_index = min(range(len(previous_costs)), key=previous_costs.__getitem__)
    end_time = previous_times[best_final_index]

    starts: Dict[Hashable, int] = {}
    for index in range(n - 1, -1, -1):
        starts[chain[index]] = end_time - durations[index]
        end_time = parents[index][end_time]

    algorithm = "DP" if polynomial else "DP-pseudo"
    schedule = Schedule(instance, starts, algorithm=algorithm)
    # The DP objective equals baseline + sum of increments; the returned
    # schedule's carbon cost is recomputed by callers via carbon_cost(), which
    # agrees by construction.
    del baseline
    return schedule


_INFEASIBLE = float("inf")


def _prefix_minima(costs: Sequence[int]) -> List[Tuple[int, int]]:
    """Return, per position, the minimum cost among positions ``0..i`` and its index."""
    result: List[Tuple[int, int]] = []
    best_cost = _INFEASIBLE
    best_index = 0
    for index, cost in enumerate(costs):
        if cost < best_cost:
            best_cost = cost
            best_index = index
        result.append((best_cost, best_index))
    return result
