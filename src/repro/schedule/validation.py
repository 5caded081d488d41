"""Feasibility checking of schedules.

A schedule of the communication-enhanced DAG ``Gc`` is feasible when

1. every task runs within ``[0, T]``: it starts at a non-negative time and
   finishes by the deadline ``T``, and
2. every edge of ``Ec`` is respected: a task starts no earlier than each
   predecessor's finish time.

The fixed mapping's order needs no third check.
:func:`~repro.mapping.enhanced_dag.build_enhanced_dag` adds a chain edge
between every two consecutive tasks of a compute processor and between every
two consecutive communications of a link, so check 2 makes each task on a
processor start after the previous one finishes: the tasks of a processor
run in the fixed order and never overlap.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Tuple

import numpy as np

from repro.mapping.enhanced_dag import EnhancedDAG
from repro.schedule.schedule import Schedule
from repro.utils.errors import InfeasibleScheduleError

__all__ = ["check_schedule", "is_feasible"]


def check_schedule(schedule: Schedule) -> None:
    """Raise :class:`InfeasibleScheduleError` naming the first violation.

    Deadline violations are reported before precedence violations: the
    first task in :meth:`~repro.mapping.enhanced_dag.EnhancedDAG.nodes`
    order that starts before 0 or finishes after the deadline, else the
    first violated edge in :meth:`~repro.mapping.enhanced_dag.EnhancedDAG.edges`
    order.  Both are one vectorised pass over the difference constraints
    of :func:`_constraint_rows`.
    """
    dag = schedule.instance.dag
    deadline = schedule.instance.deadline
    nodes, sources, targets, source_duration = dag._memoised(
        "constraint_rows", lambda: _constraint_rows(dag)
    )
    starts = schedule._start
    cells = chain(map(starts.__getitem__, nodes), (0, deadline))
    try:
        row = np.fromiter(cells, np.int64, len(nodes) + 2)
    except OverflowError:
        # Any start outside [0, deadline] breaks its window, whatever its size.
        cells = chain((min(max(starts[node], -1), deadline + 1) for node in nodes), (0, deadline))
        row = np.fromiter(cells, np.int64, len(nodes) + 2)
    violated = row[targets] - row[sources] < source_duration
    if not violated.any():
        return
    index = int(violated.argmax())
    count = len(nodes)
    if index >= 2 * count:
        source, target = nodes[sources[index]], nodes[targets[index]]
        raise InfeasibleScheduleError(
            f"precedence violated: {target!r} starts at {starts[target]} "
            f"before {source!r} finishes at {starts[source] + dag.duration(source)}"
        )
    node = nodes[int((violated[:count] | violated[count : 2 * count]).argmax())]
    if starts[node] < 0:
        raise InfeasibleScheduleError(f"task {node!r} starts at negative time {starts[node]}")
    raise InfeasibleScheduleError(
        f"task {node!r} finishes at {starts[node] + dag.duration(node)}, "
        f"after the deadline {deadline}"
    )


def _constraint_rows(dag: EnhancedDAG) -> Tuple[List, np.ndarray, np.ndarray, np.ndarray]:
    """Return *dag*'s nodes and its feasibility constraints as ``int64`` rows.

    Constraint ``i`` reads ``start[targets[i]] - start[sources[i]] >=
    duration[i]`` over the starts in node order, then a time-0 cell and a
    deadline cell.  First come one constraint per task from the time-0 cell
    (duration 0), then one per task to the deadline cell (its duration),
    then the DAG's edges in :meth:`EnhancedDAG.edges` order.
    """
    nodes = dag.nodes()
    count = len(nodes)
    position = {node: index for index, node in enumerate(nodes)}
    successors = list(map(dag.successor_map().__getitem__, nodes))
    degrees = list(map(len, successors))
    edges = sum(degrees)
    cells = np.arange(count, dtype=np.int64)
    sources = np.empty(2 * count + edges, np.int64)
    targets = np.empty(2 * count + edges, np.int64)
    sources[:count] = count
    sources[count : 2 * count] = cells
    sources[2 * count :] = cells.repeat(degrees)
    targets[:count] = cells
    targets[count : 2 * count] = count + 1
    targets[2 * count :] = np.fromiter(
        map(position.__getitem__, chain.from_iterable(successors)), np.int64, edges
    )
    # Each constraint's duration is its source cell's; the two time cells have none.
    durations = np.fromiter(
        chain(map(dag.duration_map().__getitem__, nodes), (0, 0)), np.int64, count + 2
    )
    return nodes, sources, targets, durations[sources]


def is_feasible(schedule: Schedule) -> bool:
    """Return whether *schedule* satisfies all feasibility constraints."""
    try:
        check_schedule(schedule)
    except InfeasibleScheduleError:
        return False
    return True
