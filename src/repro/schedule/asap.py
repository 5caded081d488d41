"""The ASAP baseline and earliest / latest start times.

The baseline of the paper starts every task at its earliest possible start
time (EST), computed by Kahn-style propagation over the communication-enhanced
DAG: sources start at 0, any other task starts when the last predecessor has
finished.  The ASAP makespan ``D`` is the tightest possible deadline of an
instance; the paper's experiments use deadlines ``D, 1.5 D, 2 D, 3 D``.

Latest start times (LST) are the symmetric quantity computed backwards from
the deadline; the slack ``LST − EST`` drives the CaWoSched scores.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.mapping.enhanced_dag import EnhancedDAG
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import InfeasibleScheduleError

__all__ = [
    "earliest_start_times",
    "latest_start_times",
    "asap_makespan",
    "asap_schedule",
]


def earliest_start_times(dag: EnhancedDAG) -> Dict[Hashable, int]:
    """Return the earliest start time (EST) of every node of *dag*.

    ``EST(v) = max over predecessors u of (EST(u) + duration(u))``, 0 for
    sources.  The DAG computes these starts once, in topological order; the
    result is keyed in that order.
    """
    return dict(zip(dag._order, dag._asap_row))


def latest_start_times(dag: EnhancedDAG, deadline: int) -> Dict[Hashable, int]:
    """Return the latest start time (LST) of every node for the given deadline.

    ``LST(v) = deadline − duration(v)`` for sinks and
    ``LST(v) = min over successors w of LST(w) − duration(v)`` otherwise.

    Raises
    ------
    InfeasibleScheduleError
        If some node's LST is negative, i.e. the deadline cannot be met.
    """
    deadline = int(deadline)
    lst: Dict[Hashable, int] = {}
    for node in reversed(dag.topological_order()):
        successors = dag.successors(node)
        if not successors:
            lst[node] = deadline - dag.duration(node)
        else:
            lst[node] = min(lst[succ] for succ in successors) - dag.duration(node)
        if lst[node] < 0:
            raise InfeasibleScheduleError(
                f"task {node!r} cannot meet the deadline {deadline}: "
                f"its latest start time would be {lst[node]}"
            )
    return lst


def asap_makespan(dag: EnhancedDAG) -> int:
    """Return the makespan ``D`` of the ASAP schedule of *dag*.

    This is the critical-path duration of the communication-enhanced DAG
    (:meth:`~repro.mapping.enhanced_dag.EnhancedDAG.critical_path_duration`)
    and the tightest feasible deadline of any instance built on *dag*.
    """
    return dag.critical_path_duration()


def asap_schedule(instance: ProblemInstance) -> Schedule:
    """Return the ASAP baseline schedule of *instance*.

    Every task starts at its earliest start time; the green-power profile is
    ignored entirely (this is the carbon-unaware competitor of the paper).
    """
    return Schedule._trusted(instance, earliest_start_times(instance.dag), algorithm="ASAP")
