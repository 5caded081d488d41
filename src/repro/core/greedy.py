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

The budget intervals are two plain ``int`` lists, the interval begins and
their budgets; the intervals are contiguous over ``[0, T)``, so each one ends
where the next begins.  A task's window covers a few intervals out of a few
dozen, so ``bisect``, a first-maximum scan, ``list.insert`` and a short loop
beat NumPy calls, whose per-call overhead dominates at these sizes.  The
scan is a plain loop: a window holds 7 intervals on average and just one in
44% of placements on the experiment grid, where slicing the window for
``max`` and ``list.index`` measured slower.  The placement loop does the
best-start scan, the split and the decrement inline and calls
:meth:`EstLstTracker._propagate_fix` for the EST/LST update, unless the task
starts at both its EST and its LST (40% of placements on the grid): such a
fix changes no window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

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

__all__ = ["greedy_schedule"]


def _initial_intervals(
    profile: PowerProfile, subdivision_points: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Return the interval begins and budgets of *profile* split at *subdivision_points*.

    Points outside ``[0, T)`` are dropped; the profile's own boundaries are
    always interval begins.  Both rows are tuples: the greedy phase memoises
    them on the instance and copies them into lists for each run.
    """
    points = set(subdivision_points) | {interval.begin for interval in profile.intervals()}
    begins = tuple(sorted(point for point in points if 0 <= point < profile.horizon))
    return begins, tuple(map(profile.budget_at, begins))


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
    Every placement keeps :meth:`EstLstTracker.fix`'s checks: a task is
    fixed once, at a start inside its current ``[EST, LST]`` window.

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
        # The four orders score the same initial windows.
        est, lst = instance._memoised(
            "greedy_windows", lambda: (initial.est_map(), initial.lst_map())
        )
        scores = compute_scores(dag, est, lst, base=base, weighted=weighted)
        position = dag._position
        return [position[node] for node in task_order(dag, scores, base=base)]

    def _initial_budgets() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        if refined:
            points = refined_subdivision(instance, block_size=block_size)
        else:
            points = original_subdivision(instance.profile)
        return _initial_intervals(instance.profile, points)

    # Tasks are topological ranks: the loop reads the tracker's rows directly.
    order = instance._memoised(("greedy_order", base, weighted), _scored_order)
    subdivision = block_size if refined else None
    template = instance._memoised(("greedy_budgets", subdivision), _initial_budgets)
    begins, budgets = list(template[0]), list(template[1])
    tracker = initial._copy()
    est, lst, duration = tracker._est, tracker._lst, tracker._duration
    is_fixed, fixed, nodes = tracker._is_fixed, tracker._fixed, tracker._order
    propagate = tracker._propagate_fix
    power = dag._active_power_row
    horizon = instance.deadline
    for index in order:
        earliest = est[index]
        latest = lst[index]
        # The best start: the begin of the first interval with the highest
        # budget among those starting in [EST, LST], else the EST.
        first = bisect_left(begins, earliest)
        stop = bisect_right(begins, latest, first)
        if first < stop:
            top = budgets[first]
            for position in range(first + 1, stop):
                if budgets[position] > top:
                    first = position
                    top = budgets[position]
            start = begins[first]
        else:
            start = earliest
            if duration[index]:
                # The EST lies inside interval first - 1; split it there.
                begins.insert(first, start)
                budgets.insert(first, budgets[first - 1])
        if is_fixed[index] or not earliest <= start <= latest:
            tracker._fix_at(index, start)  # raises, naming the task
        fixed[nodes[index]] = start
        is_fixed[index] = True
        if earliest != start or latest != start:
            # A task fixed at its only possible start changes no window.
            propagate(index, start)
        # Spend the task's power over [start, end), clipped to the horizon;
        # interval first begins at start, and the one holding end is split.
        end = start + duration[index]
        if end > horizon:
            end = horizon
        if start >= end:
            continue
        if end < horizon:
            stop = bisect_right(begins, end, first) - 1
            if begins[stop] != end:
                stop += 1
                begins.insert(stop, end)
                budgets.insert(stop, budgets[stop - 1])
        else:
            stop = len(begins)
        spent = power[index]
        for position in range(first, stop):
            budgets[position] -= spent

    name = _default_name(base, weighted, refined)
    # The run's tracker is discarded, so its start map is adopted.
    return Schedule._trusted(instance, fixed, algorithm=name)


def _default_name(base: str, weighted: bool, refined: bool) -> str:
    """Return the paper's variant name for a greedy configuration."""
    prefix = "slack" if base == SCORE_SLACK else "press"
    return prefix + ("W" if weighted else "") + ("R" if refined else "")
