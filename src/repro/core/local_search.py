"""Local search (hill climbing) on top of a greedy schedule.

The local search of §5.3 iterates over the processors in non-increasing order
of their working power; on each processor it walks over the tasks from left to
right (in the fixed mapping order) and tries to move each task by up to ``µ``
time units to the left or right.  A move is *legal* when the new start time
respects the task's predecessors and successors in the current schedule (and
the deadline); the first legal move with a strictly positive carbon-cost gain
is applied.  Rounds over all processors are repeated until a full round yields
no gain, so the procedure is a plain hill climber and can only improve the
schedule.

Each schedule is searched on its own, in plain Python.  The search keeps the
schedule's excess row (power minus budget per time unit, see
:mod:`repro.schedule.cost`) as a list of ints and applies a move as two
short loops over the task's old and new cells.  It scores a task when the
walk reaches it without a score, and keeps the score until an accepted move
changes what it depends on: the task's legal window (a graph neighbour
moved) or the excess in the time region it read (the move's window overlaps
it).  A clean task therefore stays clean across rounds, and the final
no-gain round of the hill climber re-scores nothing.

Most tasks cannot gain, and two exact tests show it without scoring a
candidate: a task that covers no cell of positive excess saves nothing by
leaving its cells, and a task whose window reaches no cell of negative
excess pays its full power for every cell it newly covers, which is at least
what it saves.  Only the other tasks are scored in full, in integer
arithmetic: the excess without the task's own power, clipped to ``[-p, 0]``,
and one window sum per candidate start, which gives each candidate's
:meth:`~repro.schedule.timeline.PowerTimeline.move_gain`.  Every stored score
equals a fresh one when it is read, so the result is byte-identical to the
per-candidate ``move_gain`` hill climber of the paper, which the test suite
keeps as its reference.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.core.estlst import _rank_rows
from repro.schedule.cost import _fitting_excess
from repro.schedule.schedule import Schedule
from repro.utils.errors import CaWoSchedError
from repro.utils.validation import check_non_negative_int

__all__ = ["local_search", "DEFAULT_WINDOW"]

#: Default local-search window (the paper's µ).
DEFAULT_WINDOW = 10


def local_search(
    schedules: Sequence[Schedule],
    *,
    window: int = DEFAULT_WINDOW,
    best_improvement: bool = False,
) -> List[Schedule]:
    """Improve every schedule of *schedules* with the CaWoSched local search.

    Each schedule is searched on its own, so the result for one schedule
    does not depend on the others.

    Parameters
    ----------
    schedules:
        Feasible schedules of one instance (typically the outputs of the
        greedy phase, or ASAP); the same schedule may appear more than once.
    window:
        Maximum shift (in time units) considered to the left and to the right
        of a task's current start time (the paper's ``µ``, default 10).
    best_improvement:
        If true, evaluate all legal moves of a task and apply the best one
        instead of the first improving one.  The paper reports that this does
        not significantly change the results and uses first improvement; the
        flag exists for the ablation benchmark.

    Returns
    -------
    list of Schedule
        One schedule per input, in input order, whose carbon cost is never
        higher than the input's, labelled with the input schedule's label
        and an ``-LS`` suffix.

    Raises
    ------
    CaWoSchedError
        If *schedules* is empty, is a single :class:`Schedule` instead of a
        sequence of them, or holds schedules of different instances.
    """
    window = check_non_negative_int(window, "window")
    if isinstance(schedules, Schedule):
        raise CaWoSchedError("local_search takes a sequence of schedules, not one Schedule")
    schedules = list(schedules)
    if not schedules:
        raise CaWoSchedError("local_search needs at least one schedule")
    instance = schedules[0].instance
    if any(schedule.instance is not instance for schedule in schedules):
        raise CaWoSchedError("local_search takes schedules of one instance only")

    dag = instance.dag
    walk, powers = dag._memoised("search_rows", lambda: _search_rows(dag, instance.work_power_map))
    position = _rank_rows(dag)[1]
    improved = []
    for schedule in schedules:
        search = _Search(instance, schedule, walk, powers, window, best_improvement)
        # Every accepted move lowers the integer, non-negative carbon cost,
        # so the search ends.
        while search.walk():
            pass
        # The result keeps its input's key order.
        starts = search._starts
        improved.append(
            Schedule._trusted(
                instance,
                {node: starts[position[node]] for node in schedule._start},
                algorithm=f"{schedule.algorithm}-LS",
                cost=sum(cell for cell in search._excess if cell > 0),
            )
        )
    return improved


def _search_rows(dag, work_power: Dict) -> Tuple[List[int], List[int]]:
    """Return the walk and the working powers of the search on *dag*, by topological rank.

    The walk visits the processors by non-increasing working power (ties
    broken by name), each processor's tasks in mapping order.
    """
    order, position = _rank_rows(dag)[:2]
    processors = sorted(
        dag.processors_with_tasks(),
        key=lambda proc: (-dag.platform.processor(proc).p_work, str(proc)),
    )
    return (
        [position[node] for proc in processors for node in dag.ordered_task_map()[proc]],
        [work_power[node] for node in order],
    )


class _Search:
    """First- (or best-) improvement walk over one schedule's excess row.

    Tasks are topological ranks: the start times, durations, powers and
    graph rows are lists indexed by rank.  Each task's score is kept in one
    state map together with the time region it depends on and the start it
    would move to (``-1`` when no move improves the cost: the task is
    *clean*).  A task's legal window is derived from its graph neighbours'
    current starts when it is scored.
    """

    def __init__(self, instance, schedule: Schedule, walk: List[int], powers: List[int],
                 window: int, best_improvement: bool) -> None:
        order, _, self._duration, self._preds, self._succs = _rank_rows(instance.dag)
        self._walk = walk
        self._powers = powers
        self._deadline = instance.deadline
        self._window = window
        self._best_improvement = best_improvement
        starts = schedule._start
        self._starts: List[int] = [starts[node] for node in order]
        self._excess: List[int] = list(_fitting_excess(instance, schedule))
        # Scored tasks: rank -> (begin, end, target).  [begin, end) is the
        # excess region the score read; target is the improving start, or
        # -1 for a clean task.
        self._scored: Dict[int, Tuple[int, int, int]] = {}

    def walk(self) -> bool:
        """Visit every task once, in walk order; return whether any task moved."""
        scored = self._scored
        moved = False
        for index in self._walk:
            state = scored.get(index)
            if state is None:
                state = scored[index] = self._score(index)
            target = state[2]
            if target >= 0:
                self._apply_move(index, target)
                moved = True
        return moved

    def _score(self, index: int) -> Tuple[int, int, int]:
        """Return the score of task *index*: the region it read and its target."""
        starts = self._starts
        current = starts[index]
        duration = self._duration[index]
        end = current + duration
        excess = self._excess
        # (i) The task covers no cell of positive excess, so leaving its
        # cells saves nothing and no move gains.
        if not self._powers[index] or not duration or max(excess[current:end]) <= 0:
            return current, end, -1
        # The legal window: after every predecessor's finish, before every
        # successor's start and the deadline.
        window = self._window
        lo = current - window if current > window else 0
        for pred, pred_duration in self._preds[index]:
            if starts[pred] + pred_duration > lo:
                lo = starts[pred] + pred_duration
        hi = self._deadline
        for succ in self._succs[index]:
            if starts[succ] < hi:
                hi = starts[succ]
        hi -= duration
        if hi > current + window:
            hi = current + window
        begin = lo if lo < current else current
        stop = (hi if hi > current else current) + duration
        # (ii) Every cell a move can newly cover has excess at least 0, so
        # it costs the task's full power, at least what leaving a cell saves.
        if min(excess[lo:current], default=0) >= 0 and min(excess[end:stop], default=0) >= 0:
            return begin, stop, -1
        return begin, stop, self._full_score(index, lo, hi, begin, stop)

    def _full_score(self, index: int, lo: int, hi: int, begin: int, stop: int) -> int:
        """Return the start in ``lo .. hi`` that task *index* moves to, or -1.

        The cost change of covering cell ``t`` is ``clip(e_t, -p, 0) + p``,
        with ``e_t`` the excess without the task's own power ``p``; the
        constant ``p`` cancels in the gains, so the gain of a candidate is the
        window sum over the current cells minus the one over the candidate's
        cells, both read from one prefix sum over ``[begin, stop)``.  Each
        gain equals :meth:`~repro.schedule.timeline.PowerTimeline.move_gain`
        of the candidate, the reference the tests check it against.
        """
        current = self._starts[index]
        duration = self._duration[index]
        power = self._powers[index]
        excess = self._excess
        end = current + duration
        region = excess[begin:current] + [cell - power for cell in excess[current:end]]
        region += excess[end:stop]
        floor = -power
        cells = (0 if cell >= 0 else cell if cell > floor else floor for cell in region)
        prefix = list(accumulate(cells, initial=0))
        baseline = prefix[end - begin] - prefix[current - begin]
        sums = [prefix[k + duration] - prefix[k] for k in range(lo - begin, hi - begin + 1)]
        if self._best_improvement:
            least = min(sums, default=baseline)
            return lo + sums.index(least) if least < baseline else -1
        return next((lo + k for k, total in enumerate(sums) if total < baseline), -1)

    def _apply_move(self, index: int, target: int) -> None:
        old_start = self._starts[index]
        duration = self._duration[index]
        power = self._powers[index]
        excess = self._excess
        excess[old_start : old_start + duration] = [
            cell - power for cell in excess[old_start : old_start + duration]
        ]
        excess[target : target + duration] = [
            cell + power for cell in excess[target : target + duration]
        ]
        self._starts[index] = target
        scored = self._scored
        del scored[index]
        # A graph neighbour's legal window changed.
        for other in self._succs[index]:
            scored.pop(other, None)
        for other, _ in self._preds[index]:
            scored.pop(other, None)
        # Drop every score whose excess region overlaps the changed window.
        changed_begin = min(old_start, target)
        changed_end = max(old_start, target) + duration
        stale = [
            other
            for other, (begin, end, _) in scored.items()
            if begin < changed_end and changed_begin < end
        ]
        for other in stale:
            del scored[other]
