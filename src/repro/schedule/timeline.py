"""Mutable excess timeline used for incremental cost evaluation.

The local search evaluates many candidate single-task moves; this module is
their reference evaluator.  :class:`PowerTimeline` loads a schedule and
keeps its excess row, the platform power minus the green budget of every
time unit (see :mod:`repro.schedule.cost`), as one NumPy array; moving a
task touches only its old and new execution windows, and the cost change of
a move can be computed from the affected slice alone.  :func:`_gain_rows`,
the kernel of :meth:`PowerTimeline.gain_profiles`, scores every candidate
start of many tasks against an excess row in one NumPy pass.  The local
search does not call it: it runs the same integer arithmetic in plain Python
on the few tasks that its no-gain tests let through, and the test suite
checks both against per-candidate :meth:`PowerTimeline.move_gain` calls.

The timeline is pseudo-polynomial in the deadline (one array cell per time
unit), which is practical for the instance sizes the library targets and is
exactly the granularity the local search of the paper reasons about (it moves
tasks by individual time units).
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence, Tuple

import numpy as np

from repro.schedule.cost import _excess_row, _schedule_excess
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import InvalidScheduleError

__all__ = ["PowerTimeline"]


def _fitting_excess(instance: ProblemInstance, schedule: Schedule) -> np.ndarray:
    """Return *schedule*'s read-only excess row on *instance*, ending at the deadline.

    The row a costed schedule holds is reused.  A task that finishes after
    the deadline raises :class:`InvalidScheduleError` naming it.
    """
    starts = schedule._start
    if schedule.instance is instance:
        row = _schedule_excess(schedule)
    else:
        row = _excess_row(instance, starts)
    horizon = instance.deadline
    if len(row) > horizon:
        duration = instance.dag.duration_map()
        node = next(node for node, start in starts.items() if start + duration[node] > horizon)
        raise InvalidScheduleError(
            f"task {node!r} at start {starts[node]} (duration "
            f"{duration[node]}) does not fit into the horizon [0, {horizon})"
        )
    return row


class PowerTimeline:
    """Platform power minus green budget per time unit, under single-task moves.

    Parameters
    ----------
    instance:
        The problem instance (defines the horizon, the idle-power baseline and
        the per-node working powers).
    schedule:
        The schedule whose tasks the timeline holds.
    """

    def __init__(self, instance: ProblemInstance, schedule: Schedule) -> None:
        self._instance = instance
        # Durations and working powers are read on every mutation; the
        # instance-level maps are computed once and shared across runs.
        self._duration: Dict[Hashable, int] = instance.dag.duration_map()
        self._work_power: Dict[Hashable, int] = instance.work_power_map
        self._starts: Dict[Hashable, int] = schedule.start_times()
        # The schedule's row is read-only and stays with it; moves edit a copy.
        self._excess = _fitting_excess(instance, schedule).copy()

    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> ProblemInstance:
        """The problem instance this timeline belongs to."""
        return self._instance

    @property
    def horizon(self) -> int:
        """The deadline ``T``."""
        return len(self._excess)

    def start_of(self, node: Hashable) -> int:
        """Return the currently placed start time of *node*."""
        try:
            return self._starts[node]
        except KeyError as exc:
            raise InvalidScheduleError(f"task {node!r} is not placed on the timeline") from exc

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def move(self, node: Hashable, new_start: int) -> None:
        """Move *node* to *new_start* with two slice updates."""
        old_start = self.start_of(node)
        new_start = int(new_start)
        if new_start == old_start:
            return
        duration = self._duration[node]
        if new_start < 0 or new_start + duration > self.horizon:
            raise InvalidScheduleError(
                f"task {node!r} at start {new_start} (duration {duration}) does not "
                f"fit into the horizon [0, {self.horizon})"
            )
        work_power = self._work_power[node]
        if work_power:
            self._excess[old_start : old_start + duration] -= work_power
            self._excess[new_start : new_start + duration] += work_power
        self._starts[node] = new_start

    # ------------------------------------------------------------------ #
    # Cost evaluation
    # ------------------------------------------------------------------ #
    def total_cost(self) -> int:
        """Return the carbon cost of the currently placed tasks."""
        return int(np.maximum(self._excess, 0).sum())

    def segment_cost(self, begin: int, end: int) -> int:
        """Return the carbon cost restricted to the time window ``[begin, end)``."""
        begin = max(0, int(begin))
        end = min(self.horizon, int(end))
        if end <= begin:
            return 0
        return int(np.maximum(self._excess[begin:end], 0).sum())

    def move_gain(self, node: Hashable, new_start: int) -> int:
        """Return the cost reduction of moving *node* to *new_start*.

        Positive values mean the move lowers the carbon cost.  The timeline is
        left unchanged.
        """
        old_start = self.start_of(node)
        if new_start == old_start:
            return 0
        duration = self._duration[node]
        if new_start < 0 or new_start + duration > self.horizon:
            raise InvalidScheduleError(
                f"task {node!r} cannot move to {new_start}: outside the horizon"
            )
        window_begin = min(old_start, new_start)
        window_end = max(old_start, new_start) + duration
        before = self.segment_cost(window_begin, window_end)
        self.move(node, new_start)
        after = self.segment_cost(window_begin, window_end)
        self.move(node, old_start)
        return before - after

    def gain_profile(self, node: Hashable, lo: int, hi: int) -> np.ndarray:
        """Return the move gains of all candidate starts ``lo .. hi`` at once.

        The result is an ``int64`` array of length ``hi - lo + 1`` whose entry
        ``s - lo`` equals ``move_gain(node, s)`` (the entry for the current
        start, when inside the window, is 0).  This is the one-task case of
        :meth:`gain_profiles`.  The timeline is left unchanged.
        """
        return self.gain_profiles([node], [lo], [hi])[0]

    def gain_profiles(
        self, nodes: Sequence[Hashable], los: Sequence[int], his: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return the move gains of every task's candidate starts in one pass.

        Task ``i`` moves within ``los[i] .. his[i]`` (an empty window when
        ``his[i] < los[i]``).  The result is ``(gains, offsets)``: the
        ``int64`` gains of all tasks concatenated in task order, and the
        ``len(nodes) + 1`` offsets delimiting them, so that
        ``gains[offsets[i] + s - los[i]] == move_gain(nodes[i], s)``.

        Instead of per-candidate move round trips, every candidate is
        scored with one prefix-sum expression over the concatenated regions
        ``[min(lo, cur), max(hi, cur) + d)`` of the tasks: with ``excess[t]``
        the power minus the budget after removing the task's own power
        ``p``, the cost delta of covering ``t`` is ``max(excess[t] + p, 0) -
        max(excess[t], 0) = clip(excess[t], -p, 0) + p``; the constant ``p``
        per covered unit is shared by every candidate and cancels in the gain
        differences, so the cost of candidate ``s`` differs from the shared
        baseline by the sum of ``clip(excess, -p, 0)`` over ``[s, s + d)`` — a
        sliding-window sum read from one cumulative sum, segmented per task.
        All arithmetic is integer, so the gains are bit-identical to the
        scalar loop.  The timeline is left unchanged.
        """
        starts = self._starts
        try:
            placed = [starts[node] for node in nodes]
        except KeyError as exc:
            raise InvalidScheduleError(
                f"task {exc.args[0]!r} is not placed on the timeline"
            ) from None
        cur, duration, power, lo, hi = np.array(
            (
                placed,
                [self._duration[node] for node in nodes],
                [self._work_power[node] for node in nodes],
                los,
                his,
            ),
            dtype=np.int64,
        )
        outside = (lo < 0) | (hi + duration > self.horizon)
        if outside.any():
            index = int(outside.argmax())
            raise InvalidScheduleError(
                f"task {nodes[index]!r} cannot move within [{lo[index]}, {hi[index]}]: "
                "outside the horizon"
            )
        return _gain_rows(self._excess, cur, duration, power, lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PowerTimeline(horizon={self.horizon}, placed={len(self._starts)}/"
            f"{self._instance.dag.num_nodes})"
        )


def _gain_rows(excess, cur, duration, power, lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    """The kernel of :meth:`PowerTimeline.gain_profiles` on ``int64`` rows, one entry per task.

    *excess* holds the power minus the budget of every cell.  Task ``i``
    is placed at cell ``cur[i]``, takes ``duration[i]`` cells, draws
    ``power[i]`` working power and moves within ``lo[i] .. hi[i]``, a window
    inside the row (unchecked here).
    """
    count = len(cur)
    candidates = np.maximum(hi - lo + 1, 0)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(candidates, out=offsets[1:])
    # Region of each task in the concatenated rows; it always holds the
    # task's current placement, whose window sum is the shared baseline.
    begin = np.minimum(lo, cur)
    lengths = np.maximum(hi, cur) + duration - begin
    region = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=region[1:])
    # Per cell of the concatenated regions: the offset from cell index to
    # time, and the task's own start, end and power.
    shift, own_begin, own_end, own_power = np.repeat(
        np.array((begin - region[:-1], cur, cur + duration, power)), lengths, axis=1
    )
    times = np.arange(region[-1], dtype=np.int64)
    times += shift
    cells = excess[times]
    cells -= ((times >= own_begin) & (times < own_end)) * own_power
    np.minimum(cells, 0, out=cells)
    np.maximum(cells, -own_power, out=cells)
    prefix = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(cells, out=prefix[1:])
    # Prefix index of each task's current start and of every candidate.
    current = region[:-1] + cur - begin
    baseline = prefix[current + duration] - prefix[current]
    first, candidate_duration, candidate_baseline = np.repeat(
        np.array((region[:-1] + lo - begin - offsets[:-1], duration, baseline)),
        candidates,
        axis=1,
    )
    index = np.arange(offsets[-1], dtype=np.int64)
    index += first
    gains = candidate_baseline - prefix[index + candidate_duration]
    gains += prefix[index]
    return gains, offsets
