"""Schedule and profile builders shared by the tests, and a reference greedy phase."""

from __future__ import annotations

import bisect
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.carbon.intervals import PowerProfile
from repro.core.estlst import EstLstTracker
from repro.core.scores import compute_scores, task_order
from repro.core.subdivision import original_subdivision, refined_subdivision
from repro.mapping.enhanced_dag import EnhancedDAG
from repro.schedule.asap import latest_start_times
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule


def with_start(schedule: Schedule, node: Hashable, start: int) -> Schedule:
    """Return a copy of *schedule* with *node* moved to *start*.

    The result is checked like any :class:`Schedule` (every node covered,
    non-negative integer starts) but not for feasibility, so tests use it to
    build schedules that break a deadline or a precedence edge.
    """
    starts = schedule.start_times()
    starts[node] = start
    return Schedule(schedule.instance, starts, algorithm=schedule.algorithm)


def with_zero_durations(dag: EnhancedDAG, zero) -> EnhancedDAG:
    """A copy of *dag* in which the nodes of *zero* take no time."""
    nodes = dag.nodes()
    return EnhancedDAG(
        dag.platform,
        dag.mapping,
        dag.ordered_task_map(),
        {node: 0 if node in zero else dag.duration(node) for node in nodes},
        {node: dag.processor(node) for node in nodes},
        {node for node in nodes if dag.is_comm(node)},
        {node: dict.fromkeys(dag.successors(node)) for node in nodes},
        {node: dict.fromkeys(dag.predecessors(node)) for node in nodes},
    )


def alap_schedule(instance: ProblemInstance) -> Schedule:
    """Return the ALAP schedule of *instance*: every task at its latest start time."""
    lst = latest_start_times(instance.dag, instance.deadline)
    return Schedule(instance, lst, algorithm="ALAP")


def profile_from_time_unit_budgets(budgets: Sequence[int]) -> PowerProfile:
    """Return the profile whose budget per time unit is *budgets*, merging equal runs."""
    lengths: List[int] = []
    values: List[int] = []
    for value in budgets:
        value = int(value)
        if values and values[-1] == value:
            lengths[-1] += 1
        else:
            lengths.append(1)
            values.append(value)
    return PowerProfile(lengths, values)


class BudgetIntervals:
    """Mutable view of the green budget over a subdivision of the horizon.

    The reference for the budget bookkeeping that ``greedy_schedule`` does
    inline: the intervals are contiguous over ``[0, T)``, so each one ends
    where the next begins.  Placing a task splits the partially covered
    first/last intervals and decreases the budget of every interval the task
    overlaps.
    """

    def __init__(self, profile: PowerProfile, subdivision_points: Sequence[int]) -> None:
        points = sorted(set(subdivision_points) | {iv.begin for iv in profile.intervals()})
        if not points or points[0] != 0:
            points = [0] + [p for p in points if p != 0]
        self._horizon = profile.horizon
        self._begins: List[int] = [p for p in points if 0 <= p < profile.horizon]
        self._budgets: List[int] = [profile.budget_at(begin) for begin in self._begins]

    def intervals(self) -> List[Tuple[int, int, int]]:
        """Return the current (begin, end, budget) triples."""
        return list(zip(self._begins, self._begins[1:] + [self._horizon], self._budgets))

    def best_start(self, earliest: int, latest: int) -> Optional[int]:
        """Return the best interval start within ``[earliest, latest]``.

        "Best" means the interval with the highest remaining budget; ties are
        broken towards the earliest start point (the scan keeps the first
        maximum).  Returns ``None`` when no interval starts inside the window.
        """
        begins = self._begins
        lo = bisect.bisect_left(begins, earliest)
        hi = bisect.bisect_right(begins, latest)
        if hi <= lo:
            return None
        budgets = self._budgets
        best = lo
        for index in range(lo + 1, hi):
            if budgets[index] > budgets[best]:
                best = index
        return begins[best]

    def _split_index(self, time: int) -> int:
        """Make *time* (in ``[0, horizon)``) an interval boundary and return its index."""
        begins = self._begins
        index = bisect.bisect_right(begins, time) - 1
        if begins[index] == time:
            return index
        # The right part of the split interval starts at *time*.
        begins.insert(index + 1, time)
        self._budgets.insert(index + 1, self._budgets[index])
        return index + 1

    def consume(self, begin: int, end: int, power: int) -> None:
        """Decrease the budget by *power* over the window ``[begin, end)``.

        The window is clipped to the horizon; boundary intervals are split so
        that the decrement applies exactly to the window.  Budgets may become
        negative, which simply marks heavily loaded intervals as unattractive
        for subsequent tasks.
        """
        horizon = self._horizon
        begin = int(begin) if begin > 0 else 0
        end = int(end) if end < horizon else horizon
        if end <= begin:
            return
        lo = self._split_index(begin)
        hi = self._split_index(end) if end < horizon else len(self._begins)
        budgets = self._budgets
        for index in range(lo, hi):
            budgets[index] -= power


def reference_greedy(
    instance: ProblemInstance, *, base: str, weighted: bool, refined: bool, block_size: int
) -> Dict[Hashable, int]:
    """Return the greedy phase's starts, in placement order, one public call at a time.

    Each task in score order starts at :meth:`BudgetIntervals.best_start` of
    its ``[EST, LST]`` window (its EST when no interval starts there), is
    fixed with :meth:`EstLstTracker.fix` and spends its active power with
    :meth:`BudgetIntervals.consume`.
    """
    dag, profile = instance.dag, instance.profile
    tracker = EstLstTracker(dag, instance.deadline)
    scores = compute_scores(
        dag, tracker.est_map(), tracker.lst_map(), base=base, weighted=weighted
    )
    if refined:
        points = refined_subdivision(instance, block_size=block_size)
    else:
        points = original_subdivision(profile)
    budgets = BudgetIntervals(profile, points)
    active = instance.active_power_map
    for node in task_order(dag, scores, base=base):
        start = budgets.best_start(tracker.est(node), tracker.lst(node))
        if start is None:
            start = tracker.est(node)
        tracker.fix(node, start)
        budgets.consume(start, start + dag.duration(node), active[node])
    return tracker.fixed_starts()
