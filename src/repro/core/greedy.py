"""The greedy phase of CaWoSched.

Tasks are processed in the order induced by their score (slack or pressure,
optionally power-weighted).  Each task is started at the beginning of the
remaining-budget interval with the highest green budget among the intervals
whose start lies in the task's current ``[EST, LST]`` window (ties are broken
towards the earliest interval); if no interval start is available the task
simply starts at its EST.  After a task has been placed, the budgets of the
intervals it overlaps are decreased by the task's processor power (idle +
working), the overlapped boundary intervals are split, and the EST/LST of all
unscheduled tasks are updated (§5.2 of the paper).
"""

from __future__ import annotations

import bisect
import copy
from typing import List, Optional, Sequence, Tuple

from repro.carbon.intervals import PowerProfile
from repro.core.estlst import EstLstTracker
from repro.core.scores import SCORE_PRESSURE, SCORE_SLACK, compute_scores, task_order
from repro.core.subdivision import (
    DEFAULT_BLOCK_SIZE,
    original_subdivision,
    refined_subdivision,
)
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import CaWoSchedError

__all__ = ["BudgetIntervals", "greedy_schedule"]


class BudgetIntervals:
    """Mutable view of the green budget over a subdivision of the horizon.

    The interval begins and budgets are plain Python ``int`` lists; the
    intervals are contiguous over ``[0, T)``, so each one ends where the
    next begins.  A task's window covers a few intervals out of a few
    dozen, so ``bisect``, a first-maximum scan, ``list.insert`` and a short
    loop beat NumPy calls, whose per-call overhead dominates at these
    sizes.  Placing a task splits the partially covered first/last
    intervals and decreases the budget of every interval the task overlaps.
    """

    def __init__(self, profile: PowerProfile, subdivision_points: Sequence[int]) -> None:
        points = sorted(set(subdivision_points) | {iv.begin for iv in profile.intervals()})
        if not points or points[0] != 0:
            points = [0] + [p for p in points if p != 0]
        self._horizon = profile.horizon
        self._begins: List[int] = [p for p in points if 0 <= p < profile.horizon]
        self._budgets: List[int] = [profile.budget_at(begin) for begin in self._begins]

    def _copy(self) -> "BudgetIntervals":
        """Return an independent copy (consuming it leaves this one unchanged)."""
        twin = copy.copy(self)
        twin._begins = list(self._begins)
        twin._budgets = list(self._budgets)
        return twin

    # ------------------------------------------------------------------ #
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
        """Make *time* an interval boundary and return its interval index.

        *time* must lie in ``[0, horizon)``.
        """
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


def greedy_schedule(
    instance: ProblemInstance,
    *,
    base: str,
    weighted: bool = False,
    refined: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Schedule:
    """Run the greedy CaWoSched phase on *instance*.

    The inputs that depend on the instance alone (the initial EST/LST, the
    task order of each score, the initial budget intervals of each
    subdivision) are computed on the first run that needs them and kept on
    the instance, so later runs on it pay only for the placement loop.

    Parameters
    ----------
    instance:
        The problem instance.
    base:
        Base score: ``"slack"`` or ``"pressure"``.
    weighted:
        Whether to weight the score by the processor power factor.
    refined:
        Whether to use the refined interval subdivision (block alignments).
    block_size:
        Maximum block size of the refined subdivision (the paper's ``k``).

    Returns
    -------
    Schedule
        A feasible schedule of all tasks, labelled with the paper's variant
        name (the caller may refine it further with the local search).
    """
    if base not in (SCORE_SLACK, SCORE_PRESSURE):
        raise CaWoSchedError(f"unknown base score {base!r}")
    dag = instance.dag
    initial = instance._memoised("greedy_tracker", lambda: EstLstTracker(dag, instance.deadline))

    def _scored_order() -> List[int]:
        scores = compute_scores(
            dag, initial.est_map(), initial.lst_map(), base=base, weighted=weighted
        )
        position = initial._position
        return [position[node] for node in task_order(dag, scores, base=base)]

    def _initial_budgets() -> BudgetIntervals:
        if refined:
            points = refined_subdivision(instance, block_size=block_size)
        else:
            points = original_subdivision(instance.profile)
        return BudgetIntervals(instance.profile, points)

    # Tasks are topological ranks: the loop reads the tracker's rows directly.
    order = instance._memoised(("greedy_order", base, weighted), _scored_order)
    subdivision = block_size if refined else None
    budgets = instance._memoised(("greedy_budgets", subdivision), _initial_budgets)._copy()
    tracker = initial._copy()
    est, lst, duration = tracker._est, tracker._lst, tracker._duration
    active = instance.active_power_map
    power = dag._memoised("active_power_row", lambda: [active[node] for node in initial._order])
    best_start, consume, fix_at = budgets.best_start, budgets.consume, tracker._fix_at
    for index in order:
        earliest = est[index]
        start = best_start(earliest, lst[index])
        if start is None:
            start = earliest
        fix_at(index, start)
        consume(start, start + duration[index], power[index])

    name = _default_name(base, weighted, refined)
    return Schedule._trusted(instance, tracker.fixed_starts(), algorithm=name)


def _default_name(base: str, weighted: bool, refined: bool) -> str:
    """Return the paper's variant name for a greedy configuration."""
    prefix = "slack" if base == SCORE_SLACK else "press"
    return prefix + ("W" if weighted else "") + ("R" if refined else "")
