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

from repro.schedule.schedule import Schedule
from repro.utils.errors import InfeasibleScheduleError

__all__ = ["check_schedule", "is_feasible"]


def check_schedule(schedule: Schedule) -> None:
    """Raise :class:`InfeasibleScheduleError` naming the first violation.

    Deadline violations are reported before precedence violations.
    """
    instance = schedule.instance
    dag = instance.dag
    deadline = instance.deadline
    starts = schedule.start_times()
    duration = dag.duration_map()
    finish = {node: start + duration[node] for node, start in starts.items()}
    for node in dag.nodes():
        start = starts[node]
        if start < 0:
            raise InfeasibleScheduleError(f"task {node!r} starts at negative time {start}")
        if finish[node] > deadline:
            raise InfeasibleScheduleError(
                f"task {node!r} finishes at {finish[node]}, after the deadline {deadline}"
            )
    for source, target in dag.edges():
        if starts[target] < finish[source]:
            raise InfeasibleScheduleError(
                f"precedence violated: {target!r} starts at {starts[target]} "
                f"before {source!r} finishes at {finish[source]}"
            )


def is_feasible(schedule: Schedule) -> bool:
    """Return whether *schedule* satisfies all feasibility constraints."""
    try:
        check_schedule(schedule)
    except InfeasibleScheduleError:
        return False
    return True
