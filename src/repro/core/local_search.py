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

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

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
    dag = instance.dag
    starts: Dict[Hashable, int] = schedule.start_times()
    timeline = PowerTimeline(instance, schedule)

    # Processors in non-increasing order of their working power; ties broken
    # by name for determinism.
    processors: List[Hashable] = sorted(
        dag.processors_with_tasks(),
        key=lambda proc: (-instance.dag.platform.processor(proc).p_work, str(proc)),
    )

    order = [node for processor in processors for node in dag.ordered_task_map()[processor]]
    searcher = _BatchedSearch(instance, timeline, starts, window, best_improvement)

    # Every accepted move lowers the integer, non-negative carbon cost, so
    # the rounds end.
    while searcher.walk(order):
        pass

    return Schedule._trusted(
        instance, starts, algorithm=f"{schedule.algorithm}-LS", cost=timeline.total_cost()
    )


class _BatchedSearch:
    """Round-batched first- (or best-) improvement walk over stored scores.

    Each task's score is kept in one state map together with the time region
    it depends on and the start it would move to (``None`` when no move
    improves the cost: the task is *clean*).  A clean task stays clean across
    rounds until a move touches its window or region, so the final no-gain
    round of the hill climber re-scores nothing.  A task's legal window is
    derived from its graph neighbours' current starts when it is scored.
    """

    def __init__(
        self,
        instance,
        timeline: PowerTimeline,
        starts: Dict[Hashable, int],
        window: int,
        best_improvement: bool,
    ) -> None:
        dag = instance.dag
        self._deadline = instance.deadline
        self._timeline = timeline
        self._starts = starts
        self._window = window
        self._best_improvement = best_improvement
        self._duration: Dict[Hashable, int] = dag.duration_map()
        self._preds: Dict[Hashable, List[Hashable]] = dag.predecessor_map()
        self._succs: Dict[Hashable, List[Hashable]] = dag.successor_map()
        # Scored tasks: node -> (begin, end, target).  [begin, end) is the
        # power region the score read; target is the improving start, or
        # None for a clean task.
        self._scored: Dict[Hashable, Tuple[int, int, Optional[int]]] = {}

    def walk(self, order: List[Hashable]) -> bool:
        """Visit every task of *order* once; return whether any task moved."""
        scored = self._scored
        moved = False
        for position, node in enumerate(order):
            state = scored.get(node)
            if state is None:
                self._score([other for other in order[position:] if other not in scored])
                state = scored[node]
            target = state[2]
            if target is not None:
                self._apply_move(node, target)
                moved = True
        return moved

    def _score(self, nodes: List[Hashable]) -> None:
        """Score the candidate starts of *nodes* with one kernel call."""
        starts = self._starts
        window = self._window
        duration = self._duration
        preds = self._preds
        succs = self._succs
        los: List[int] = []
        his: List[int] = []
        for node in nodes:
            # The legal window: after every predecessor's finish, before
            # every successor's start and the deadline.
            current = starts[node]
            lo = current - window
            if lo < 0:
                lo = 0
            for pred in preds[node]:
                finish = starts[pred] + duration[pred]
                if finish > lo:
                    lo = finish
            hi = self._deadline
            for succ in succs[node]:
                if starts[succ] < hi:
                    hi = starts[succ]
            hi -= duration[node]
            if current + window < hi:
                hi = current + window
            los.append(lo)
            his.append(hi)
        gains, offsets = self._timeline.gain_profiles(nodes, los, his)
        # Each task's candidates are gains[begin:end]; its chosen index is the
        # first positive (or, for best improvement, the first positive
        # maximum) one, and ``end`` when none improves the cost.
        bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        if self._best_improvement:
            chosen = []
            for begin, end in bounds:
                index = begin + int(gains[begin:end].argmax()) if end > begin else end
                chosen.append(index if index < end and gains[index] > 0 else end)
        else:
            positive = np.append(np.flatnonzero(gains > 0), offsets[-1])
            chosen = positive[np.searchsorted(positive, offsets[:-1])].tolist()
        scored = self._scored
        for node, lo, hi, (begin, end), index in zip(nodes, los, his, bounds, chosen):
            current = starts[node]
            scored[node] = (
                min(lo, current),
                max(hi, current) + duration[node],
                lo + index - begin if index < end else None,
            )

    def _apply_move(self, node: Hashable, target: int) -> None:
        timeline = self._timeline
        old_start = self._starts[node]
        timeline._remove_unchecked(node, old_start)
        timeline._place_unchecked(node, target)
        self._starts[node] = target
        scored = self._scored
        del scored[node]
        # A graph neighbour's legal window changed.
        for other in self._succs[node]:
            scored.pop(other, None)
        for other in self._preds[node]:
            scored.pop(other, None)
        # Drop every score whose power region overlaps the changed window.
        changed_begin = min(old_start, target)
        changed_end = max(old_start, target) + self._duration[node]
        stale = [
            other
            for other, (begin, end, _) in scored.items()
            if begin < changed_end and changed_begin < end
        ]
        for other in stale:
            del scored[other]
