"""Mutable excess timeline: the reference evaluator of single-task moves.

:class:`PowerTimeline` loads a schedule and keeps its excess row, the
platform power minus the green budget of every time unit (see
:mod:`repro.schedule.cost`), as one ``int64`` NumPy array; moving a task
touches only its old and new execution windows, and the cost change of a
move can be computed from the affected slice alone.  The library does not
use it: the local search scores moves with its own integer arithmetic in
plain Python, and the test suite checks each of its scores against
per-candidate :meth:`PowerTimeline.move_gain` calls.

The timeline is pseudo-polynomial in the deadline (one array cell per time
unit), which is practical for the instance sizes the library targets and is
exactly the granularity the local search of the paper reasons about (it moves
tasks by individual time units).
"""

from __future__ import annotations

from typing import Dict, Hashable

import numpy as np

from repro.schedule.cost import _fitting_excess
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import InvalidScheduleError

__all__ = ["PowerTimeline"]


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
        # DAG's maps are built with it and shared across runs.
        self._duration: Dict[Hashable, int] = instance.dag.duration_map()
        self._work_power: Dict[Hashable, int] = instance.dag._work_power
        self._starts: Dict[Hashable, int] = schedule.start_times()
        # The schedule's row stays with it; moves edit an array copy.
        self._excess = np.array(_fitting_excess(instance, schedule), dtype=np.int64)

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
        """Return the move gains of all candidate starts ``lo .. hi``.

        The result is an ``int64`` array of length ``hi - lo + 1`` (empty when
        ``hi < lo``) whose entry ``s - lo`` is ``move_gain(node, s)``, so the
        entry for the current start is 0.  The timeline is left unchanged.
        """
        gains = [self.move_gain(node, start) for start in range(lo, hi + 1)]
        return np.array(gains, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PowerTimeline(horizon={self.horizon}, placed={len(self._starts)}/"
            f"{self._instance.dag.num_nodes})"
        )
