"""Earliest / latest start time tracking while a greedy schedule is built.

The greedy CaWoSched variants fix one task at a time.  After every fixing, the
earliest start times (EST) of downstream tasks and the latest start times
(LST) of upstream tasks may tighten; the paper updates them over the whole
graph using a precomputed topological order (§5.2, "These updates take
``O(n + |Ec|)`` time").  :class:`EstLstTracker` improves on that: fixing a
task at ``start`` can only *raise* ESTs downstream and *lower* LSTs upstream,
so the tracker pushes the change outward from the fixed task and stops where
values stop changing.  Most fixes touch a small neighbourhood, which turns
the greedy phase's quadratic bookkeeping into near-linear work.

The push is relax-on-push over a worklist ordered by topological rank:
expanding a task relaxes each successor's EST against that task's finish
(forward pass), or each predecessor's LST against its start (backward pass,
ranks negated), and pushes each neighbour it changed.  Tasks are only pushed
by tasks before them in the pass, so they pop in rank order after all their
updates, and duplicate pushes pop next to each other and are skipped: each
task is expanded at most once per pass of a fix.  The fixpoint is unique, so
the values equal the full two-sweep recompute's, which only runs to
initialise the tracker (the test suite checks every update against it).  The
rows are lists indexed by topological rank and memoised on the DAG.

Fixing a task at a start time within its current ``[EST, LST]`` window always
keeps the remaining problem feasible: the constraints form a system of
difference constraints (only "start ≥ predecessor finish" lower bounds plus
the deadline upper bound), for which the per-variable feasible projections are
exactly the ``[EST, LST]`` intervals.
"""

from __future__ import annotations

import copy
from heapq import heappop, heappush
from typing import Dict, Hashable, List

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
        self._deadline = int(deadline)
        self._order, self._position, self._duration, self._preds, self._succs = (
            _rank_rows(dag)
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
            If *node* is already fixed, or the start time lies outside the
            node's current ``[EST, LST]`` window (which would make the rest
            infeasible).
        """
        self._fix_at(self._position[node], int(start))

    def _fix_at(self, index: int, start: int) -> None:
        """Fix the task at topological rank *index* to *start* (see :meth:`fix`)."""
        node = self._order[index]
        if self._is_fixed[index]:
            raise InfeasibleScheduleError(f"task {node!r} is already fixed")
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

        Relax-on-push over a heap of topological ranks (see the module
        docstring); fixed tasks keep their values and stop the propagation.
        """
        est, lst = self._est, self._lst
        is_fixed = self._is_fixed
        duration, preds, succs = self._duration, self._preds, self._succs

        if est[index] != start:
            # The fix raised the node's EST, so downstream ESTs may rise too;
            # an unchanged EST leaves every successor's input untouched.
            est[index] = start
            forward = [index]
            last = -1
            while forward:
                current = heappop(forward)
                if current == last:
                    continue
                last = current
                finish = est[current] + duration[current]
                for succ in succs[current]:
                    if finish > est[succ] and not is_fixed[succ]:
                        est[succ] = finish
                        if finish > lst[succ]:
                            self._raise_empty(succ)
                        heappush(forward, succ)

        if lst[index] != start:
            lst[index] = start
            backward = [-index]
            last = 1
            while backward:
                negative = heappop(backward)
                if negative == last:
                    continue
                last = negative
                bound = lst[-negative]
                for pred, pred_duration in preds[-negative]:
                    value = bound - pred_duration
                    if value < lst[pred] and not is_fixed[pred]:
                        lst[pred] = value
                        if value < est[pred]:
                            self._raise_empty(pred)
                        heappush(backward, -pred)

    def _raise_empty(self, index: int) -> None:
        raise InfeasibleScheduleError(
            f"task {self._order[index]!r} has an empty scheduling window "
            f"[{self._est[index]}, {self._lst[index]}] for deadline {self._deadline}"
        )

    def _recompute(self) -> None:
        """Recompute EST and LST with the fixed tasks pinned (two sweeps, in place)."""
        num_nodes = len(self._order)
        duration, preds, succs = self._duration, self._preds, self._succs
        is_fixed = self._is_fixed
        fixed_value = [
            self._fixed[node] if is_fixed[index] else 0
            for index, node in enumerate(self._order)
        ]
        est, lst = self._est, self._lst
        est[:] = lst[:] = [0] * num_nodes
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
                self._raise_empty(index)


def _rank_rows(dag: EnhancedDAG) -> tuple:
    """Return *dag*'s graph rows by topological rank, computed once per DAG.

    The rows depend on the DAG alone: every tracker over it, whatever its
    deadline, and every local search on it read the same read-only rows.
    """
    return dag._memoised("estlst_rows", lambda: _graph_rows(dag))


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
