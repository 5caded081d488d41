"""Exhaustive search over all feasible schedules (test oracle).

For very small instances the optimal carbon cost can be found by enumerating
every combination of start times that respects the precedence constraints and
the deadline.  This is exponential and exists purely as a ground-truth oracle
for the unit tests of the DP and ILP solvers; it refuses to run on instances
beyond a configurable size.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.asap import latest_start_times
from repro.utils.errors import SolverError

__all__ = ["brute_force_optimal", "DEFAULT_MAX_NODES", "DEFAULT_MAX_STATES"]

#: Refuse to enumerate instances with more nodes than this.
DEFAULT_MAX_NODES = 8
#: Abort after this many partial states have been expanded.
DEFAULT_MAX_STATES = 2_000_000


def brute_force_optimal(
    instance: ProblemInstance,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_states: int = DEFAULT_MAX_STATES,
) -> Schedule:
    """Return an optimal schedule by exhaustive enumeration.

    Parameters
    ----------
    instance:
        The (tiny) problem instance.
    max_nodes:
        Guard: raise :class:`SolverError` for instances with more nodes.
    max_states:
        Guard: raise :class:`SolverError` if the search expands more partial
        schedules than this.

    Notes
    -----
    Start times are enumerated between each task's earliest start (given the
    already-placed predecessors) and its static latest start time, in
    topological order, so only feasible schedules are generated.
    """
    dag = instance.dag
    if dag.num_nodes > max_nodes:
        raise SolverError(
            f"brute force refuses instances with more than {max_nodes} tasks "
            f"(got {dag.num_nodes})"
        )
    order = dag.topological_order()
    static_lst = latest_start_times(dag, instance.deadline)

    best_cost: Optional[int] = None
    best_starts: Optional[Dict[Hashable, int]] = None
    states_expanded = 0

    starts: Dict[Hashable, int] = {}

    def recurse(position: int) -> None:
        nonlocal best_cost, best_starts, states_expanded
        if position == len(order):
            schedule = Schedule(instance, dict(starts), algorithm="brute")
            cost = carbon_cost(schedule)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_starts = dict(starts)
            return
        node = order[position]
        earliest = max(
            (starts[pred] + dag.duration(pred) for pred in dag.predecessors(node)),
            default=0,
        )
        for start in range(earliest, static_lst[node] + 1):
            states_expanded += 1
            if states_expanded > max_states:
                raise SolverError(
                    f"brute force exceeded {max_states} states; "
                    f"use the DP or ILP solver instead"
                )
            starts[node] = start
            recurse(position + 1)
            del starts[node]

    recurse(0)
    if best_starts is None:
        raise SolverError("brute force found no feasible schedule")
    return Schedule(instance, best_starts, algorithm="brute")
