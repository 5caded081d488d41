"""Topological-order helpers on plain ``node -> successors`` mappings.

Workflows and communication-enhanced DAGs are numbered by this order: HEFT's
upward ranks, the brute-force solver and the DAG's rows by topological rank
(EST/LST propagation, the greedy placement loop, the local search) read it.
The order is a Kahn pass with deterministic tie-breaking (by node sort key,
then by insertion order) so that repeated runs produce identical orders,
which matters for the reproducibility of the greedy heuristics.  The pass
also rejects cycles: it is the acyclicity check of the communication-enhanced
DAG, while ``Workflow.add_dependency`` and ``Mapping._validate_acyclic``
check their own graphs before one is built.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Hashable, Iterable, List, Mapping

from repro.utils.errors import CyclicWorkflowError

__all__ = ["topological_order"]

Successors = Mapping[Hashable, Iterable[Hashable]]


def topological_order(successors: Successors) -> List[Hashable]:
    """Return a deterministic topological order of a ``node -> successors`` map.

    Every node must be a key of *successors*; the key order is the insertion
    order.  Among the nodes whose predecessors are all emitted, the smallest
    ``(sort key, insertion index)`` comes first, so the result is unique for a
    given graph.

    Raises
    ------
    CyclicWorkflowError
        If the graph contains a cycle.
    """
    index = {node: position for position, node in enumerate(successors)}
    indegree = dict.fromkeys(successors, 0)
    for targets in successors.values():
        for node in targets:
            indegree[node] += 1
    ready = [(_sort_key(node), index[node], node) for node, d in indegree.items() if d == 0]
    heapify(ready)
    order: List[Hashable] = []
    while ready:
        node = heappop(ready)[2]
        order.append(node)
        for child in successors[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heappush(ready, (_sort_key(child), index[child], child))
    if len(order) != len(index):
        raise CyclicWorkflowError("graph contains a cycle")
    return order


def _sort_key(node: Hashable):
    """Sort key that tolerates mixed node label types."""
    return (str(type(node).__name__), str(node))
