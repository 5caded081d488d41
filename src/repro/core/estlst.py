"""Earliest / latest start time tracking while a greedy schedule is built.

The greedy CaWoSched variants fix one task at a time.  After every fixing, the
earliest start times (EST) of downstream tasks and the latest start times
(LST) of upstream tasks may tighten; the paper updates them over the whole
graph using a precomputed topological order (§5.2, "These updates take
``O(n + |Ec|)`` time").  :class:`EstLstTracker` improves on that: fixing a
task at ``start`` can only *raise* ESTs downstream and *lower* LSTs upstream,
so the tracker propagates the change outward from the fixed task along the
topological order and stops as soon as values stop changing.  Most fixes
touch a small neighbourhood, which turns the greedy phase's quadratic
bookkeeping into near-linear work.  The full two-sweep recompute only runs
once, to initialise the tracker; the test suite checks every incremental
update against it.  Internally all bookkeeping is positional
(lists indexed by topological rank, adjacency as index/duration pairs), so
the propagation loop touches no hashing at all.

Fixing a task at a start time within its current ``[EST, LST]`` window always
keeps the remaining problem feasible: the constraints form a system of
difference constraints (only "start ≥ predecessor finish" lower bounds plus
the deadline upper bound), for which the per-variable feasible projections are
exactly the ``[EST, LST]`` intervals.
"""

from __future__ import annotations

import copy
import heapq
from typing import Dict, Hashable, List, Optional

from repro.mapping.enhanced_dag import EnhancedDAG
from repro.utils.errors import InfeasibleScheduleError

__all__ = ["EstLstTracker"]


class EstLstTracker:
    """EST/LST bookkeeping over a communication-enhanced DAG.

    Parameters
    ----------
    dag:
        The communication-enhanced DAG.
    deadline:
        The deadline ``T``.

    Raises
    ------
    InfeasibleScheduleError
        If the deadline cannot be met even without fixing any task.
    """

    def __init__(self, dag: EnhancedDAG, deadline: int) -> None:
        self._dag = dag
        self._deadline = int(deadline)
        # The graph rows depend on the DAG alone: every tracker over it,
        # whatever its deadline, reads the same read-only rows.
        self._order, self._position, self._duration, self._preds, self._succs = (
            dag._memoised("estlst_rows", lambda: _graph_rows(dag))
        )
        self._fixed: Dict[Hashable, int] = {}
        self._is_fixed: List[bool] = [False] * len(self._order)
        self._est: List[int] = []
        self._lst: List[int] = []
        self._recompute()

    # ------------------------------------------------------------------ #
    @property
    def deadline(self) -> int:
        """The deadline ``T``."""
        return self._deadline

    def est(self, node: Hashable) -> int:
        """Return the current earliest start time of *node*."""
        return self._est[self._position[node]]

    def lst(self, node: Hashable) -> int:
        """Return the current latest start time of *node*."""
        return self._lst[self._position[node]]

    def slack(self, node: Hashable) -> int:
        """Return the current slack ``LST − EST`` of *node*."""
        index = self._position[node]
        return self._lst[index] - self._est[index]

    def est_map(self) -> Dict[Hashable, int]:
        """Return a copy of the current EST values."""
        return dict(zip(self._order, self._est))

    def lst_map(self) -> Dict[Hashable, int]:
        """Return a copy of the current LST values."""
        return dict(zip(self._order, self._lst))

    def is_fixed(self, node: Hashable) -> bool:
        """Return whether *node* already has a fixed start time."""
        return node in self._fixed

    def fixed_start(self, node: Hashable) -> Optional[int]:
        """Return the fixed start time of *node*, or ``None``."""
        return self._fixed.get(node)

    def fixed_starts(self) -> Dict[Hashable, int]:
        """Return a copy of all fixed start times."""
        return dict(self._fixed)

    def _copy(self) -> "EstLstTracker":
        """Return an independent tracker in the same state.

        Only the fixed starts and the EST/LST rows change under :meth:`fix`;
        the graph rows are read-only and shared with the copy.
        """
        twin = copy.copy(self)
        twin._fixed = dict(self._fixed)
        twin._is_fixed = list(self._is_fixed)
        twin._est = list(self._est)
        twin._lst = list(self._lst)
        return twin

    # ------------------------------------------------------------------ #
    def fix(self, node: Hashable, start: int) -> None:
        """Fix *node* to start at *start* and propagate the EST/LST updates.

        Raises
        ------
        InfeasibleScheduleError
            If the start time lies outside the node's current
            ``[EST, LST]`` window (which would make the rest infeasible).
        """
        start = int(start)
        if node in self._fixed:
            raise InfeasibleScheduleError(f"task {node!r} is already fixed")
        index = self._position[node]
        if not self._est[index] <= start <= self._lst[index]:
            raise InfeasibleScheduleError(
                f"cannot fix task {node!r} at {start}: outside its window "
                f"[{self._est[index]}, {self._lst[index]}]"
            )
        self._fixed[node] = start
        self._is_fixed[index] = True
        self._propagate_fix(index, start)

    # ------------------------------------------------------------------ #
    def _propagate_fix(self, index: int, start: int) -> None:
        """Push the EST/LST consequences of fixing the task at *index* outward.

        ESTs are non-decreasing and LSTs non-increasing under a fix inside the
        node's window, so a worklist ordered by topological rank revisits each
        affected task after its relevant neighbours are final and stops where
        values no longer change.
        """
        est, lst = self._est, self._lst
        is_fixed = self._is_fixed
        duration, preds, succs = self._duration, self._preds, self._succs

        forward: List[int] = []
        if est[index] != start:
            # The fix raised the node's EST, so downstream ESTs may rise too;
            # an unchanged EST leaves every successor's input untouched.
            est[index] = start
            forward = list(succs[index])
            heapq.heapify(forward)
        queued = set(forward)
        while forward:
            current = heapq.heappop(forward)
            queued.discard(current)
            if is_fixed[current]:
                continue
            value = 0
            for pred, pred_duration in preds[current]:
                finish = est[pred] + pred_duration
                if finish > value:
                    value = finish
            if value == est[current]:
                continue
            est[current] = value
            if value > lst[current]:
                raise InfeasibleScheduleError(
                    f"task {self._order[current]!r} has an empty scheduling window "
                    f"[{value}, {lst[current]}] for deadline {self._deadline}"
                )
            for succ in succs[current]:
                if succ not in queued:
                    queued.add(succ)
                    heapq.heappush(forward, succ)

        backward: List[int] = []
        if lst[index] != start:
            lst[index] = start
            backward = [-pred for pred, _ in preds[index]]
            heapq.heapify(backward)
        queued = set(backward)
        while backward:
            negative = heapq.heappop(backward)
            queued.discard(negative)
            current = -negative
            if is_fixed[current]:
                continue
            successors = succs[current]
            if successors:
                bound = lst[successors[0]]
                for succ in successors[1:]:
                    if lst[succ] < bound:
                        bound = lst[succ]
                value = bound - duration[current]
            else:
                value = self._deadline - duration[current]
            if value == lst[current]:
                continue
            lst[current] = value
            if value < est[current]:
                raise InfeasibleScheduleError(
                    f"task {self._order[current]!r} has an empty scheduling window "
                    f"[{est[current]}, {value}] for deadline {self._deadline}"
                )
            for pred, _ in preds[current]:
                if -pred not in queued:
                    queued.add(-pred)
                    heapq.heappush(backward, -pred)

    def _recompute(self) -> None:
        """Recompute EST and LST with the fixed tasks pinned (two sweeps)."""
        num_nodes = len(self._order)
        duration, preds, succs = self._duration, self._preds, self._succs
        is_fixed = self._is_fixed
        fixed_value = [
            self._fixed[node] if is_fixed[index] else 0
            for index, node in enumerate(self._order)
        ]
        est: List[int] = [0] * num_nodes
        for index in range(num_nodes):
            if is_fixed[index]:
                est[index] = fixed_value[index]
                continue
            value = 0
            for pred, pred_duration in preds[index]:
                finish = est[pred] + pred_duration
                if finish > value:
                    value = finish
            est[index] = value
        lst: List[int] = [0] * num_nodes
        for index in range(num_nodes - 1, -1, -1):
            if is_fixed[index]:
                lst[index] = fixed_value[index]
                continue
            successors = succs[index]
            if successors:
                bound = lst[successors[0]]
                for succ in successors[1:]:
                    if lst[succ] < bound:
                        bound = lst[succ]
                lst[index] = bound - duration[index]
            else:
                lst[index] = self._deadline - duration[index]
            if lst[index] < est[index]:
                raise InfeasibleScheduleError(
                    f"task {self._order[index]!r} has an empty scheduling window "
                    f"[{est[index]}, {lst[index]}] for deadline {self._deadline}"
                )
        self._est = est
        self._lst = lst


def _graph_rows(dag: EnhancedDAG) -> tuple:
    """Return *dag*'s order, positions, durations, preds and succs, by topological rank.

    Predecessors are always read together with their duration (the
    finish-time bound), so the pair is fused into the adjacency row.
    """
    order = dag.topological_order()
    position = {node: index for index, node in enumerate(order)}
    duration = dag.duration_map()
    return (
        order,
        position,
        [duration[node] for node in order],
        [[(position[p], duration[p]) for p in dag.predecessor_map()[node]] for node in order],
        [[position[s] for s in dag.successor_map()[node]] for node in order],
    )
