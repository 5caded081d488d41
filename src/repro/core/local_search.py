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

The search is round-batched.  One kernel call
(:func:`repro.schedule.timeline._gain_rows`, the kernel of
``PowerTimeline.gain_profiles``) scores the candidate starts of every task
that has no valid score yet, and the walk then reads the stored scores in
the paper's order.  A score stays valid until an accepted move changes what
it depends on: the task's legal window (a graph neighbour moved) or the
excess (power minus budget) in the time region it read (the move's window
overlaps it).  When the walk reaches a task whose score was dropped, one
call re-scores it together with every other unscored task still ahead in
the round, so a run makes at most one kernel call per round plus one per
accepted move.  Every call reads the current excess, so the result is
byte-identical to the per-candidate ``move_gain`` hill climber of the paper,
which the test suite keeps as its reference.

The searches of one call run in lock step, so that NumPy's fixed cost per
kernel call is paid once for all of them.  The group owns one excess buffer,
the concatenation of its schedules' excess rows: search ``k`` owns cells
``k * T .. (k + 1) * T`` and applies its moves there with two slice updates.
Each search's walk is a step function that yields the tasks it needs
scored; once every unfinished search has yielded, one kernel call on the
buffer scores all their tasks, and every search resumes.  The searches
share nothing but the kernel call, so each one makes exactly the moves it
makes alone, and a group makes at most as many calls as its longest search
would.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.estlst import _rank_rows
from repro.schedule.schedule import Schedule
from repro.schedule.timeline import _fitting_excess, _gain_rows
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

    The searches run in lock step: each one walks its own schedule and
    pauses whenever it needs tasks scored, and one kernel call then scores
    the pending tasks of every search.  A search makes exactly the moves it
    makes when it runs alone, so the result does not depend on the group.

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

    group = _LockStep(instance, schedules, window, best_improvement)
    # Every accepted move lowers the integer, non-negative carbon cost, so
    # every search ends.
    requests = [(search._rounds(), search, None) for search in group.searches]
    while True:
        requests = [
            (steps, search, ranks)
            for steps, search, _ in requests
            if (ranks := next(steps, None)) is not None
        ]
        if not requests:
            break
        group._score([(search, ranks) for _, search, ranks in requests])

    # Each result keeps its input's key order; its cost is the clipped sum
    # of its cells of the buffer.
    position = _rank_rows(instance.dag)[1]
    costs = np.maximum(group.excess, 0).reshape(len(schedules), -1).sum(axis=1).tolist()
    return [
        Schedule._trusted(
            instance,
            {node: search._starts[position[node]] - search._shift for node in schedule._start},
            algorithm=f"{schedule.algorithm}-LS",
            cost=cost,
        )
        for schedule, search, cost in zip(schedules, group.searches, costs)
    ]


def _search_rows(dag, work_power: Dict) -> Tuple:
    """Return the walk, the kernel rows and the working powers of the search on *dag*.

    All three are by topological rank.  The walk visits the processors by
    non-increasing working power (ties broken by name), each processor's
    tasks in mapping order; the kernel rows are the ``int64`` durations and
    working powers.
    """
    order, position, duration = _rank_rows(dag)[:3]
    processors = sorted(
        dag.processors_with_tasks(),
        key=lambda proc: (-dag.platform.processor(proc).p_work, str(proc)),
    )
    powers = [work_power[node] for node in order]
    return (
        [position[node] for proc in processors for node in dag.ordered_task_map()[proc]],
        np.array((duration, powers), dtype=np.int64),
        powers,
    )


class _LockStep:
    """The searches of one lock-step group and the excess buffer they share.

    The buffer concatenates the schedules' excess rows: search ``k`` owns
    cells ``k * T .. (k + 1) * T``, so :meth:`_score` scores the pending
    ranks of every search with one kernel call on it.
    """

    def __init__(self, instance, schedules: List[Schedule], window: int,
                 best_improvement: bool) -> None:
        dag = instance.dag
        walk, self._kernel_rows, powers = dag._memoised(
            "search_rows", lambda: _search_rows(dag, instance.work_power_map)
        )
        self.excess = np.concatenate(
            [_fitting_excess(instance, schedule) for schedule in schedules]
        )
        self._deadline = instance.deadline
        self._window = window
        self._best_improvement = best_improvement
        self.searches = [
            _BatchedSearch(dag, schedule, walk, powers, self.excess, row * instance.deadline)
            for row, schedule in enumerate(schedules)
        ]

    def _score(self, requests: List[Tuple["_BatchedSearch", List[int]]]) -> None:
        """Score the requested ranks of every search with one kernel call.

        A task's legal window is derived from its graph neighbours' current
        starts in its own search.  Every search works on its cells of the
        excess buffer (see :class:`_BatchedSearch`), so its starts,
        windows, targets and regions need no conversion for the kernel.
        """
        placed: List[int] = []
        los: List[int] = []
        his: List[int] = []
        ranks: List[int] = []
        deadline, window = self._deadline, self._window
        for search, indices in requests:
            starts, duration = search._starts, search._duration
            preds, succs = search._preds, search._succs
            # The search's time 0 and deadline, on its row of the buffer.
            first = search._shift
            last = first + deadline
            for index in indices:
                # The legal window: after every predecessor's finish, before
                # every successor's start and the deadline.
                current = starts[index]
                lo = current - window if current - window > first else first
                for pred, pred_duration in preds[index]:
                    if starts[pred] + pred_duration > lo:
                        lo = starts[pred] + pred_duration
                hi = last
                for succ in succs[index]:
                    if starts[succ] < hi:
                        hi = starts[succ]
                hi -= duration[index]
                placed.append(current)
                los.append(lo)
                his.append(hi if hi < current + window else current + window)
            ranks += indices
        cur, lo, hi = np.array((placed, los, his), dtype=np.int64)
        length, power = self._kernel_rows[:, ranks]
        gains, offsets = _gain_rows(self.excess, cur, length, power, lo, hi)
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
        states = zip(
            np.minimum(lo, cur).tolist(),
            (np.maximum(hi, cur) + length).tolist(),
            np.where(chosen < offsets[1:], lo + chosen - offsets[:-1], -1).tolist(),
        )
        # zip stops at the end of *indices* before drawing from *states*.
        for search, indices in requests:
            search._scored.update(zip(indices, states))


class _BatchedSearch:
    """Round-batched first- (or best-) improvement walk over stored scores.

    Tasks are topological ranks: the start times, durations and graph rows
    are lists indexed by rank.  Each task's score is kept in one state map
    together with the time region it depends on and the start it would move
    to (``-1`` when no move improves the cost: the task is *clean*).  A
    clean task stays clean across rounds until a move touches its window or
    region, so the final no-gain round of the hill climber re-scores
    nothing.  A task's legal window is derived from its graph neighbours'
    current starts when it is scored.

    The walk is a step function: it yields the ranks it needs scored and
    resumes once :meth:`_LockStep._score` has stored their scores.  Its
    excess row starts *shift* cells into the group's *excess* buffer, and
    the search keeps its starts, regions and targets in the cells of that
    buffer: time ``t`` is cell ``shift + t``.  Gains are differences, so they
    do not depend on the shift.
    """

    def __init__(self, dag, schedule: Schedule, walk: List[int], powers: List[int],
                 excess: np.ndarray, shift: int) -> None:
        order, _, self._duration, self._preds, self._succs = _rank_rows(dag)
        self._walk = walk
        self._powers = powers
        self._excess = excess
        starts = schedule._start
        self._starts: List[int] = [starts[node] + shift for node in order]
        self._shift = shift
        # Scored tasks: rank -> (begin, end, target).  [begin, end) is the
        # excess region the score read; target is the improving start, or
        # -1 for a clean task.
        self._scored: Dict[int, Tuple[int, int, int]] = {}

    def _rounds(self) -> Iterator[List[int]]:
        """Walk round after round until a round moves no task, yielding as :meth:`walk` does."""
        while (yield from self.walk()):
            pass

    def walk(self) -> Generator[List[int], None, bool]:
        """Visit every task once, in walk order; return whether any task moved.

        On reaching a task without a score it yields that task and every
        other unscored task still ahead in the round, and resumes once they
        are scored.
        """
        order = self._walk
        scored = self._scored
        moved = False
        for position, index in enumerate(order):
            state = scored.get(index)
            if state is None:
                yield [other for other in order[position:] if other not in scored]
                state = scored[index]
            target = state[2]
            if target >= 0:
                self._apply_move(index, target)
                moved = True
        return moved

    def _apply_move(self, index: int, target: int) -> None:
        old_start = self._starts[index]
        duration = self._duration[index]
        power = self._powers[index]
        if power:
            self._excess[old_start : old_start + duration] -= power
            self._excess[target : target + duration] += power
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
