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

The inner loop asks :meth:`~repro.schedule.timeline.PowerTimeline.gain_profile`
for the gains of *all* candidate starts of a task in one NumPy expression and
keeps each task's legal window in a lazily invalidated cache (a window only
changes when a graph neighbour actually moves).  It is byte-identical to the
per-candidate ``move_gain`` hill climber of the paper, which the test suite
keeps as its reference.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

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
    algorithm_name: Optional[str] = None,
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
    algorithm_name:
        Optional label of the returned schedule; defaults to the input
        schedule's label with an ``-LS`` suffix.

    Returns
    -------
    Schedule
        A schedule whose carbon cost is never higher than the input's.
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

    searcher = _VectorSearch(instance, timeline, starts)

    # Every accepted move lowers the integer, non-negative carbon cost, so
    # the rounds end.
    round_gain = True
    while round_gain:
        round_gain = False
        for processor in processors:
            for node in searcher.tasks_on(processor):
                if searcher.improve(node, window, best_improvement):
                    round_gain = True

    name = algorithm_name or f"{schedule.algorithm}-LS"
    return Schedule._trusted(instance, starts, algorithm=name)


class _VectorSearch:
    """Batch-gain kernel: one ``gain_profile`` call per task visit.

    The per-task legal window is cached and only recomputed after a graph
    neighbour moved (moves are rare compared to visits, so almost every visit
    reuses the cached window), and the gains of all candidate starts come
    from a single vectorized timeline evaluation.  A task whose last
    evaluation found no improving move is additionally marked *clean* together
    with the time region its gains depend on; it is skipped outright until a
    later move touches that region (in particular, the final no-gain round of
    the hill climber re-evaluates nothing).
    """

    def __init__(
        self,
        instance,
        timeline: PowerTimeline,
        starts: Dict[Hashable, int],
    ) -> None:
        dag = instance.dag
        self._deadline = instance.deadline
        self._timeline = timeline
        self._starts = starts
        nodes = dag.nodes()
        self._duration: Dict[Hashable, int] = dag.duration_map()
        self._preds: Dict[Hashable, List[Hashable]] = dag.predecessor_map()
        self._succs: Dict[Hashable, List[Hashable]] = dag.successor_map()
        self._tasks_on: Dict[Hashable, List[Hashable]] = dag.ordered_task_map()
        self._earliest: Dict[Hashable, int] = {}
        self._latest: Dict[Hashable, int] = {}
        self._dirty_earliest: Set[Hashable] = set(nodes)
        self._dirty_latest: Set[Hashable] = set(nodes)
        # Nodes proven to have no improving move, with the [begin, end) power
        # region that proof depends on.
        self._clean_region: Dict[Hashable, "tuple[int, int]"] = {}

    def tasks_on(self, processor: Hashable) -> List[Hashable]:
        return self._tasks_on[processor]

    def _window_of(self, node: Hashable) -> "tuple[int, int]":
        starts = self._starts
        if node in self._dirty_earliest:
            earliest = 0
            for pred in self._preds[node]:
                finish = starts[pred] + self._duration[pred]
                if finish > earliest:
                    earliest = finish
            self._earliest[node] = earliest
            self._dirty_earliest.discard(node)
        if node in self._dirty_latest:
            bound = self._deadline
            for succ in self._succs[node]:
                if starts[succ] < bound:
                    bound = starts[succ]
            self._latest[node] = bound - self._duration[node]
            self._dirty_latest.discard(node)
        return self._earliest[node], self._latest[node]

    def _apply_move(self, node: Hashable, old_start: int, candidate: int) -> None:
        timeline = self._timeline
        timeline._remove_unchecked(node, old_start)
        timeline._place_unchecked(node, candidate)
        self._starts[node] = candidate
        for succ in self._succs[node]:
            self._dirty_earliest.add(succ)
            self._clean_region.pop(succ, None)
        for pred in self._preds[node]:
            self._dirty_latest.add(pred)
            self._clean_region.pop(pred, None)
        # Invalidate every no-gain proof whose power region overlaps the
        # changed window.
        changed_begin = min(old_start, candidate)
        changed_end = max(old_start, candidate) + self._duration[node]
        stale = [
            other
            for other, (begin, end) in self._clean_region.items()
            if begin < changed_end and changed_begin < end
        ]
        for other in stale:
            del self._clean_region[other]

    def improve(self, node: Hashable, window: int, best_improvement: bool) -> bool:
        if node in self._clean_region:
            return False
        current = self._starts[node]
        earliest, latest = self._window_of(node)
        lo = max(earliest, current - window)
        hi = min(latest, current + window)
        if hi < lo:
            self._clean_region[node] = (current, current + self._duration[node])
            return False

        gains = self._timeline.gain_profile(node, lo, hi)
        if best_improvement:
            index = int(gains.argmax())
        else:
            positive = (gains > 0).nonzero()[0]
            if not positive.size:
                self._clean_region[node] = (
                    min(lo, current),
                    max(hi, current) + self._duration[node],
                )
                return False
            index = int(positive[0])
        if gains[index] <= 0:
            self._clean_region[node] = (
                min(lo, current),
                max(hi, current) + self._duration[node],
            )
            return False
        self._apply_move(node, current, lo + index)
        return True
