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

The search is round-batched.  One
:meth:`~repro.schedule.timeline.PowerTimeline.gain_profiles` call scores the
candidate starts of every task that has no valid score yet, and the walk then
reads the stored scores in the paper's order.  A score stays valid until an
accepted move changes what it depends on: the task's legal window (a graph
neighbour moved) or the power in the time region it read (the move's window
overlaps it).  When the walk reaches a task whose score was dropped, one call
re-scores it together with every other unscored task still ahead in the
round, so a run makes at most one kernel call per round plus one per accepted
move.  Every call reads the timeline's current state, so the result is
byte-identical to the per-candidate ``move_gain`` hill climber of the paper,
which the test suite keeps as its reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.estlst import _rank_rows
from repro.schedule.schedule import Schedule
from repro.schedule.timeline import PowerTimeline
from repro.utils.validation import check_non_negative_int

__all__ = ["local_search", "DEFAULT_WINDOW"]

#: Default local-search window (the paper's µ).
DEFAULT_WINDOW = 10


def local_search(
    schedule: Schedule,
    *,
    window: int = DEFAULT_WINDOW,
    best_improvement: bool = False,
) -> Schedule:
    """Improve *schedule* with the CaWoSched local search.

    Parameters
    ----------
    schedule:
        A feasible schedule (typically the output of the greedy phase or of
        ASAP).
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
    Schedule
        A schedule whose carbon cost is never higher than the input's,
        labelled with the input schedule's label and an ``-LS`` suffix.
    """
    window = check_non_negative_int(window, "window")

    instance = schedule.instance
    timeline = PowerTimeline(instance, schedule)
    searcher = _BatchedSearch(instance, timeline, schedule.start_times(), window, best_improvement)

    # Every accepted move lowers the integer, non-negative carbon cost, so
    # the rounds end.
    while searcher.walk():
        pass

    starts, position = searcher._starts, searcher._position
    return Schedule._trusted(
        instance,
        {node: starts[position[node]] for node in schedule},
        algorithm=f"{schedule.algorithm}-LS",
        cost=timeline.total_cost(),
    )


def _search_rows(dag, work_power: Dict) -> Tuple:
    """Return the walk and the kernel rows of the search on *dag*, by topological rank.

    The walk visits the processors by non-increasing working power (ties
    broken by name), each processor's tasks in mapping order; the kernel
    rows are the ``int64`` durations and working powers.
    """
    order, position, duration = _rank_rows(dag)[:3]
    processors = sorted(
        dag.processors_with_tasks(),
        key=lambda proc: (-dag.platform.processor(proc).p_work, str(proc)),
    )
    return (
        [position[node] for proc in processors for node in dag.ordered_task_map()[proc]],
        np.array((duration, [work_power[node] for node in order]), dtype=np.int64),
    )


class _BatchedSearch:
    """Round-batched first- (or best-) improvement walk over stored scores.

    Tasks are topological ranks: the start times, durations and graph rows
    are lists indexed by rank.  Each task's score is kept in one state map
    together with the time region it depends on and the start it would move
    to (``None`` when no move improves the cost: the task is *clean*).  A
    clean task stays clean across rounds until a move touches its window or
    region, so the final no-gain round of the hill climber re-scores
    nothing.  A task's legal window is derived from its graph neighbours'
    current starts when it is scored.
    """

    def __init__(self, instance, timeline: PowerTimeline, starts: Dict, window: int,
                 best_improvement: bool) -> None:
        dag = instance.dag
        self._order, self._position, self._duration, self._preds, self._succs = _rank_rows(dag)
        self._walk, self._kernel_rows = dag._memoised(
            "search_rows", lambda: _search_rows(dag, instance.work_power_map)
        )
        self._starts: List[int] = [starts[node] for node in self._order]
        self._deadline = instance.deadline
        self._timeline = timeline
        self._window = window
        self._best_improvement = best_improvement
        # Scored tasks: rank -> (begin, end, target).  [begin, end) is the
        # power region the score read; target is the improving start, or
        # None for a clean task.
        self._scored: Dict[int, Tuple[int, int, Optional[int]]] = {}

    def walk(self) -> bool:
        """Visit every task once, in walk order; return whether any task moved."""
        order = self._walk
        scored = self._scored
        moved = False
        for position, index in enumerate(order):
            state = scored.get(index)
            if state is None:
                self._score([other for other in order[position:] if other not in scored])
                state = scored[index]
            target = state[2]
            if target is not None:
                self._apply_move(index, target)
                moved = True
        return moved

    def _score(self, indices: List[int]) -> None:
        """Score the candidate starts of the tasks *indices* with one kernel call."""
        starts, duration, preds, succs = self._starts, self._duration, self._preds, self._succs
        window = self._window
        placed: List[int] = []
        los: List[int] = []
        his: List[int] = []
        for index in indices:
            # The legal window: after every predecessor's finish, before
            # every successor's start and the deadline.
            current = starts[index]
            lo = current - window if current > window else 0
            for pred, pred_duration in preds[index]:
                if starts[pred] + pred_duration > lo:
                    lo = starts[pred] + pred_duration
            hi = self._deadline
            for succ in succs[index]:
                if starts[succ] < hi:
                    hi = starts[succ]
            hi -= duration[index]
            placed.append(current)
            los.append(lo)
            his.append(hi if hi < current + window else current + window)
        cur, lo, hi = np.array((placed, los, his), dtype=np.int64)
        length, power = self._kernel_rows[:, indices]
        gains, offsets = self._timeline._gain_rows(cur, length, power, lo, hi)
        # Each task's candidates are gains[begin:end]; its chosen index is the
        # first positive (or, for best improvement, the first positive
        # maximum) one, and ``end`` when none improves the cost.
        if self._best_improvement:
            best = []
            for begin, end in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
                index = begin + int(gains[begin:end].argmax()) if end > begin else end
                best.append(index if index < end and gains[index] > 0 else end)
            chosen = np.array(best, dtype=np.int64)
        else:
            positive = np.concatenate(((gains > 0).nonzero()[0], offsets[-1:]))
            chosen = positive[np.searchsorted(positive, offsets[:-1])]
        target = np.where(chosen < offsets[1:], lo + chosen - offsets[:-1], -1)
        region_begin = np.minimum(lo, cur)
        region_end = np.maximum(hi, cur) + length
        scored = self._scored
        for index, begin, end, move in zip(
            indices, region_begin.tolist(), region_end.tolist(), target.tolist()
        ):
            scored[index] = (begin, end, move if move >= 0 else None)

    def _apply_move(self, index: int, target: int) -> None:
        old_start = self._starts[index]
        self._timeline.move(self._order[index], target)
        self._starts[index] = target
        scored = self._scored
        del scored[index]
        # A graph neighbour's legal window changed.
        for other in self._succs[index]:
            scored.pop(other, None)
        for other, _ in self._preds[index]:
            scored.pop(other, None)
        # Drop every score whose power region overlaps the changed window.
        changed_begin = min(old_start, target)
        changed_end = max(old_start, target) + self._duration[index]
        stale = [
            other
            for other, (begin, end, _) in scored.items()
            if begin < changed_end and changed_begin < end
        ]
        for other in stale:
            del scored[other]
