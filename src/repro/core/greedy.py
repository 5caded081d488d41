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
from typing import List, Optional, Sequence, Tuple

import numpy as np

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

    The interval boundaries are kept as sorted Python lists (``bisect`` plus
    ``list.insert`` beat array reallocation at these sizes) while the budgets
    form an ``int64`` row, always contiguous over ``[0, T)``.  Placing a task
    splits the partially covered first/last intervals and decreases the budget
    of every interval the task overlaps in one slice subtraction; the best
    start of a window is a ``bisect`` plus an ``argmax`` over the budget row
    instead of a Python scan.
    """

    def __init__(self, profile: PowerProfile, subdivision_points: Sequence[int]) -> None:
        points = sorted(set(subdivision_points) | {iv.begin for iv in profile.intervals()})
        if not points or points[0] != 0:
            points = [0] + [p for p in points if p != 0]
        points = [p for p in points if 0 <= p < profile.horizon]
        boundaries = points + [profile.horizon]
        self._begins: List[int] = []
        self._ends: List[int] = []
        budgets: List[int] = []
        for begin, end in zip(boundaries, boundaries[1:]):
            if end <= begin:
                continue
            self._begins.append(begin)
            self._ends.append(end)
            budgets.append(profile.budget_at(begin))
        self._budgets = np.asarray(budgets, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def intervals(self) -> List[Tuple[int, int, int]]:
        """Return the current (begin, end, budget) triples."""
        return list(zip(self._begins, self._ends, self._budgets.tolist()))

    def best_start(self, earliest: int, latest: int) -> Optional[int]:
        """Return the best interval start within ``[earliest, latest]``.

        "Best" means the interval with the highest remaining budget; ties are
        broken towards the earliest start point (``argmax`` keeps the first
        maximum).  Returns ``None`` when no interval starts inside the window.
        """
        lo = bisect.bisect_left(self._begins, earliest)
        hi = bisect.bisect_right(self._begins, latest)
        if hi <= lo:
            return None
        return self._begins[lo + int(self._budgets[lo:hi].argmax())]

    def _split_index(self, time: int) -> int:
        """Make *time* an interval boundary and return its interval index.

        *time* must lie in ``[0, horizon)``.
        """
        begins = self._begins
        index = bisect.bisect_right(begins, time) - 1
        if begins[index] == time:
            return index
        end, budget = self._ends[index], self._budgets[index]
        # Shrink the existing interval and insert the right part after it.
        self._ends[index] = time
        begins.insert(index + 1, time)
        self._ends.insert(index + 1, end)
        self._budgets = _insert_scalar(self._budgets, index + 1, budget)
        return index + 1

    def consume(self, begin: int, end: int, power: int) -> None:
        """Decrease the budget by *power* over the window ``[begin, end)``.

        The window is clipped to the horizon; boundary intervals are split so
        that the decrement applies exactly to the window.  Budgets may become
        negative, which simply marks heavily loaded intervals as unattractive
        for subsequent tasks.
        """
        horizon = int(self._ends[-1])
        begin = max(0, int(begin))
        end = min(horizon, int(end))
        if end <= begin:
            return
        lo = self._split_index(begin)
        hi = self._split_index(end) if end < horizon else len(self._begins)
        self._budgets[lo:hi] -= power


def _insert_scalar(row: np.ndarray, index: int, value: int) -> np.ndarray:
    """Insert *value* at *index* (three slice copies, no ``np.insert`` axis machinery)."""
    out = np.empty(len(row) + 1, dtype=row.dtype)
    out[:index] = row[:index]
    out[index] = value
    out[index + 1 :] = row[index:]
    return out


def greedy_schedule(
    instance: ProblemInstance,
    *,
    base: str,
    weighted: bool = False,
    refined: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Schedule:
    """Run the greedy CaWoSched phase on *instance*.

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
    tracker = EstLstTracker(dag, instance.deadline)

    scores = compute_scores(
        dag, tracker.est_map(), tracker.lst_map(), base=base, weighted=weighted
    )
    order = task_order(dag, scores, base=base)

    if refined:
        points = refined_subdivision(instance, block_size=block_size)
    else:
        points = original_subdivision(instance.profile)
    budgets = BudgetIntervals(instance.profile, points)

    for node in order:
        earliest = tracker.est(node)
        latest = tracker.lst(node)
        start = budgets.best_start(earliest, latest)
        if start is None:
            start = earliest
        tracker.fix(node, start)
        budgets.consume(start, start + dag.duration(node), instance.active_power_of(node))

    name = _default_name(base, weighted, refined)
    return Schedule._trusted(instance, tracker.fixed_starts(), algorithm=name)


def _default_name(base: str, weighted: bool, refined: bool) -> str:
    """Return the paper's variant name for a greedy configuration."""
    prefix = "slack" if base == SCORE_SLACK else "press"
    return prefix + ("W" if weighted else "") + ("R" if refined else "")
