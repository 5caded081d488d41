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

:func:`check_schedule` is one plain-Python pass over the tasks and their
successor lists that keeps nothing on the DAG.  Starts are compared as Python
integers, so a start of any size is checked exactly.
"""

from __future__ import annotations

from repro.schedule.schedule import Schedule
from repro.utils.errors import InfeasibleScheduleError

__all__ = ["check_schedule", "is_feasible"]


def check_schedule(schedule: Schedule) -> None:
    """Raise :class:`InfeasibleScheduleError` naming the first violation.

    Deadline violations are reported before precedence violations: the
    first task in :meth:`~repro.mapping.enhanced_dag.EnhancedDAG.nodes`
    order that starts before 0 or finishes after the deadline, else the
    first violated edge in :meth:`~repro.mapping.enhanced_dag.EnhancedDAG.edges`
    order (each task's successors, tasks in node order).
    """
    dag = schedule.instance.dag
    deadline = schedule.instance.deadline
    starts = schedule._start
    duration = dag.duration_map()
    successors = dag.successor_map()
    # The first violated edge waits until every task's window is checked.
    edge = None
    for node in dag.nodes():
        start = starts[node]
        finish = start + duration[node]
        if start < 0:
            raise InfeasibleScheduleError(f"task {node!r} starts at negative time {start}")
        if finish > deadline:
            raise InfeasibleScheduleError(
                f"task {node!r} finishes at {finish}, after the deadline {deadline}"
            )
        if edge is None:
            for target in successors[node]:
                if starts[target] < finish:
                    edge = node, target, finish
                    break
    if edge is not None:
        source, target, finish = edge
        raise InfeasibleScheduleError(
            f"precedence violated: {target!r} starts at {starts[target]} "
            f"before {source!r} finishes at {finish}"
        )


def is_feasible(schedule: Schedule) -> bool:
    """Return whether *schedule* satisfies all feasibility constraints."""
    try:
        check_schedule(schedule)
    except InfeasibleScheduleError:
        return False
    return True
