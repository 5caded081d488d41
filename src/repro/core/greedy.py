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
from typing import Hashable, List, Optional, Sequence, Tuple

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

    The interval begins, ends and budgets are plain Python ``int`` lists,
    always contiguous over ``[0, T)``.  A task's window covers a few
    intervals out of a few dozen, so ``bisect``, a first-maximum scan,
    ``list.insert`` and a short loop beat NumPy calls, whose per-call
    overhead dominates at these sizes.  Placing a task splits the partially
    covered first/last intervals and decreases the budget of every interval
    the task overlaps.
    """

    def __init__(self, profile: PowerProfile, subdivision_points: Sequence[int]) -> None:
        points = sorted(set(subdivision_points) | {iv.begin for iv in profile.intervals()})
        if not points or points[0] != 0:
            points = [0] + [p for p in points if p != 0]
        points = [p for p in points if 0 <= p < profile.horizon]
        boundaries = points + [profile.horizon]
        self._begins: List[int] = []
        self._ends: List[int] = []
        self._budgets: List[int] = []
        for begin, end in zip(boundaries, boundaries[1:]):
            if end <= begin:
                continue
            self._begins.append(begin)
            self._ends.append(end)
            self._budgets.append(profile.budget_at(begin))

    def _copy(self) -> "BudgetIntervals":
        """Return an independent copy (consuming it leaves this one unchanged)."""
        twin = copy.copy(self)
        twin._begins = list(self._begins)
        twin._ends = list(self._ends)
        twin._budgets = list(self._budgets)
        return twin

    # ------------------------------------------------------------------ #
    def intervals(self) -> List[Tuple[int, int, int]]:
        """Return the current (begin, end, budget) triples."""
        return list(zip(self._begins, self._ends, self._budgets))

    def best_start(self, earliest: int, latest: int) -> Optional[int]:
        """Return the best interval start within ``[earliest, latest]``.

        "Best" means the interval with the highest remaining budget; ties are
        broken towards the earliest start point (``max`` keeps the first
        maximum).  Returns ``None`` when no interval starts inside the window.
        """
        begins = self._begins
        lo = bisect.bisect_left(begins, earliest)
        hi = bisect.bisect_right(begins, latest)
        if hi <= lo:
            return None
        return begins[max(range(lo, hi), key=self._budgets.__getitem__)]

    def _split_index(self, time: int) -> int:
        """Make *time* an interval boundary and return its interval index.

        *time* must lie in ``[0, horizon)``.
        """
        begins = self._begins
        index = bisect.bisect_right(begins, time) - 1
        if begins[index] == time:
            return index
        # Shrink the existing interval and insert the right part after it.
        ends = self._ends
        begins.insert(index + 1, time)
        ends.insert(index + 1, ends[index])
        ends[index] = time
        self._budgets.insert(index + 1, self._budgets[index])
        return index + 1

    def consume(self, begin: int, end: int, power: int) -> None:
        """Decrease the budget by *power* over the window ``[begin, end)``.

        The window is clipped to the horizon; boundary intervals are split so
        that the decrement applies exactly to the window.  Budgets may become
        negative, which simply marks heavily loaded intervals as unattractive
        for subsequent tasks.
        """
        horizon = self._ends[-1]
        begin = max(0, int(begin))
        end = min(horizon, int(end))
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

    def _scored_order() -> List[Hashable]:
        scores = compute_scores(
            dag, initial.est_map(), initial.lst_map(), base=base, weighted=weighted
        )
        return task_order(dag, scores, base=base)

    def _initial_budgets() -> BudgetIntervals:
        if refined:
            points = refined_subdivision(instance, block_size=block_size)
        else:
            points = original_subdivision(instance.profile)
        return BudgetIntervals(instance.profile, points)

    order = instance._memoised(("greedy_order", base, weighted), _scored_order)
    subdivision = block_size if refined else None
    budgets = instance._memoised(("greedy_budgets", subdivision), _initial_budgets)._copy()
    tracker = initial._copy()
    duration = dag.duration_map()
    power = instance.active_power_map
    for node in order:
        earliest = tracker.est(node)
        latest = tracker.lst(node)
        start = budgets.best_start(earliest, latest)
        if start is None:
            start = earliest
        tracker.fix(node, start)
        budgets.consume(start, start + duration[node], power[node])

    name = _default_name(base, weighted, refined)
    return Schedule._trusted(instance, tracker.fixed_starts(), algorithm=name)


def _default_name(base: str, weighted: bool, refined: bool) -> str:
    """Return the paper's variant name for a greedy configuration."""
    prefix = "slack" if base == SCORE_SLACK else "press"
    return prefix + ("W" if weighted else "") + ("R" if refined else "")
