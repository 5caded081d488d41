"""The fixed mapping: task → processor assignment plus per-processor ordering.

CaWoSched assumes the mapping and the ordering of tasks (and communications)
per processor are given — in the paper they come from HEFT.  The
:class:`Mapping` class captures exactly that input:

* ``assignment``: which compute processor executes each task,
* ``processor_order``: in which order the tasks mapped to a processor run,
* ``communication_order``: in which order the communications sharing a
  directed link run (optional — a canonical order is derived if not given).

A mapping is always validated against its workflow and cluster: every task
must be assigned to a known processor, the per-processor orders must partition
the tasks, and the orders must be consistent with the workflow's precedence
constraints (otherwise the communication-enhanced DAG would contain a cycle).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, Hashable, List, Mapping as TMapping, Optional, Sequence, Tuple

from repro.platform_.cluster import Cluster
from repro.utils.errors import InvalidMappingError
from repro.utils.names import decode_name, encode_name
from repro.workflow.dag import Workflow

__all__ = ["Mapping"]

Edge = Tuple[Hashable, Hashable]


class Mapping:
    """A fixed task-to-processor mapping with per-processor task ordering.

    Parameters
    ----------
    workflow:
        The workflow the mapping refers to.
    cluster:
        The compute cluster.
    assignment:
        Task name → processor name.
    processor_order:
        Processor name → ordered list of the tasks mapped to it.  Processors
        without tasks may be omitted.  If ``None``, a canonical order (the
        workflow's deterministic topological order restricted to each
        processor) is used.
    communication_order:
        Directed link (source processor, target processor) → ordered list of
        the workflow edges communicated over that link.  If ``None``, a
        canonical order is derived from the processor orders (communications
        are ordered by the position of their source task on its processor,
        breaking ties by target task position).
    """

    def __init__(
        self,
        workflow: Workflow,
        cluster: Cluster,
        assignment: TMapping[Hashable, Hashable],
        processor_order: Optional[TMapping[Hashable, Sequence[Hashable]]] = None,
        communication_order: Optional[TMapping[Tuple[Hashable, Hashable], Sequence[Edge]]] = None,
    ) -> None:
        self._workflow = workflow
        self._cluster = cluster
        self._assignment: Dict[Hashable, Hashable] = dict(assignment)
        self._validate_assignment()
        self._communications = self._cross_processor_edges()

        if processor_order is None:
            self._processor_order = self._canonical_processor_order()
        else:
            self._processor_order = {
                proc: list(tasks) for proc, tasks in processor_order.items() if tasks
            }
        self._validate_processor_order()

        if communication_order is None:
            # Derived from the communications, so it lists each once.
            self._communication_order = self._canonical_communication_order()
        else:
            self._communication_order = {
                link: [tuple(edge) for edge in edges]
                for link, edges in communication_order.items()
                if edges
            }
            self._validate_communication_order()
        self._validate_acyclic()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def workflow(self) -> Workflow:
        """The mapped workflow."""
        return self._workflow

    @property
    def cluster(self) -> Cluster:
        """The target cluster."""
        return self._cluster

    def processor_of(self, task: Hashable) -> Hashable:
        """Return the processor executing *task*."""
        try:
            return self._assignment[task]
        except KeyError as exc:
            raise InvalidMappingError(f"task {task!r} is not mapped") from exc

    def assignment(self) -> Dict[Hashable, Hashable]:
        """Return a copy of the task → processor assignment."""
        return dict(self._assignment)

    def tasks_on(self, processor: Hashable) -> List[Hashable]:
        """Return the ordered list of tasks mapped to *processor*."""
        return list(self._processor_order.get(processor, []))

    def used_processors(self) -> List[Hashable]:
        """Return the processors that execute at least one task."""
        return [p for p, tasks in self._processor_order.items() if tasks]

    def duration(self, task: Hashable) -> int:
        """Return the integer running time of *task* on its assigned processor."""
        proc = self.processor_of(task)
        return self._cluster.processor(proc).execution_time(self._workflow.work(task))

    def communications(self) -> List[Edge]:
        """Return the workflow edges that require a communication (E′).

        These are the edges whose endpoints run on different processors and
        whose data volume is positive.
        """
        return list(self._communications)

    def used_links(self) -> List[Tuple[Hashable, Hashable]]:
        """Return the directed processor pairs used by at least one communication."""
        links: List[Tuple[Hashable, Hashable]] = []
        seen = set()
        for source, target in self._communications:
            link = (self._assignment[source], self._assignment[target])
            if link not in seen:
                seen.add(link)
                links.append(link)
        return links

    def communication_order(self) -> Dict[Tuple[Hashable, Hashable], List[Edge]]:
        """Return a copy of the per-link communication ordering."""
        return {link: list(edges) for link, edges in self._communication_order.items()}

    def processor_order(self) -> Dict[Hashable, List[Hashable]]:
        """Return a copy of the per-processor task ordering."""
        return {proc: list(tasks) for proc, tasks in self._processor_order.items()}

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation of the mapping.

        The workflow, the cluster, the assignment and both orderings are all
        embedded, so :meth:`from_dict` reconstructs a fully self-contained,
        re-validated mapping.
        """
        return {
            "workflow": self._workflow.to_dict(),
            "cluster": self._cluster.to_dict(),
            "assignment": [
                [encode_name(task), encode_name(proc)]
                for task, proc in self._assignment.items()
            ],
            "processor_order": [
                [encode_name(proc), [encode_name(task) for task in tasks]]
                for proc, tasks in self._processor_order.items()
            ],
            "communication_order": [
                [
                    [encode_name(link[0]), encode_name(link[1])],
                    [[encode_name(s), encode_name(t)] for s, t in edges],
                ]
                for link, edges in self._communication_order.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: TMapping[str, object]) -> "Mapping":
        """Rebuild a mapping from :meth:`to_dict` output."""
        workflow = Workflow.from_dict(data["workflow"])
        cluster = Cluster.from_dict(data["cluster"])
        assignment = {
            decode_name(task): decode_name(proc) for task, proc in data["assignment"]
        }
        processor_order = {
            decode_name(proc): [decode_name(task) for task in tasks]
            for proc, tasks in data["processor_order"]
        }
        communication_order = {}
        for link, edges in data["communication_order"]:
            if not isinstance(link, (list, tuple)) or len(link) != 2:
                raise ValueError(
                    f"communication_order link {link!r} must name two processors"
                )
            communication_order[(decode_name(link[0]), decode_name(link[1]))] = [
                (decode_name(s), decode_name(t)) for s, t in edges
            ]
        return cls(
            workflow,
            cluster,
            assignment,
            processor_order=processor_order,
            communication_order=communication_order,
        )

    # ------------------------------------------------------------------ #
    # Canonical orders
    # ------------------------------------------------------------------ #
    def _cross_processor_edges(self) -> Tuple[Edge, ...]:
        """Return :meth:`communications`, computed once: the mapping never changes."""
        assignment = self._assignment
        return tuple(
            (source, target)
            for source, targets in self._workflow.successor_map().items()
            for target, data in targets.items()
            if data > 0 and assignment[source] != assignment[target]
        )

    def _canonical_processor_order(self) -> Dict[Hashable, List[Hashable]]:
        order: Dict[Hashable, List[Hashable]] = {}
        for task in self._workflow.topological_order():
            order.setdefault(self._assignment[task], []).append(task)
        return order

    def _canonical_communication_order(self) -> Dict[Tuple[Hashable, Hashable], List[Edge]]:
        position: Dict[Hashable, int] = {}
        for proc, tasks in self._processor_order.items():
            for index, task in enumerate(tasks):
                position[task] = index
        order: Dict[Tuple[Hashable, Hashable], List[Edge]] = {}
        for source, target in self._communications:
            link = (self._assignment[source], self._assignment[target])
            order.setdefault(link, []).append((source, target))
        for link, edges in order.items():
            edges.sort(key=lambda edge: (position[edge[0]], position[edge[1]]))
        return order

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate_assignment(self) -> None:
        for task in self._workflow.tasks():
            if task not in self._assignment:
                raise InvalidMappingError(f"task {task!r} is not mapped to any processor")
        for task, proc in self._assignment.items():
            if not self._workflow.has_task(task):
                raise InvalidMappingError(f"mapping mentions unknown task {task!r}")
            if not self._cluster.has_processor(proc):
                raise InvalidMappingError(
                    f"task {task!r} is mapped to unknown processor {proc!r}"
                )

    def _validate_processor_order(self) -> None:
        seen: Dict[Hashable, Hashable] = {}
        for proc, tasks in self._processor_order.items():
            if not self._cluster.has_processor(proc):
                raise InvalidMappingError(f"ordering mentions unknown processor {proc!r}")
            for task in tasks:
                if task in seen:
                    raise InvalidMappingError(
                        f"task {task!r} appears in the order of both {seen[task]!r} and {proc!r}"
                    )
                seen[task] = proc
                if self._assignment.get(task) != proc:
                    raise InvalidMappingError(
                        f"task {task!r} is ordered on {proc!r} but mapped to "
                        f"{self._assignment.get(task)!r}"
                    )
        for task in self._workflow.tasks():
            if task not in seen:
                raise InvalidMappingError(f"task {task!r} is missing from the processor order")

    def _validate_communication_order(self) -> None:
        expected: Dict[Tuple[Hashable, Hashable], set] = {}
        for source, target in self._communications:
            link = (self._assignment[source], self._assignment[target])
            expected.setdefault(link, set()).add((source, target))
        listed: Dict[Tuple[Hashable, Hashable], set] = {}
        for link, edges in self._communication_order.items():
            for edge in edges:
                if edge in listed.setdefault(link, set()):
                    raise InvalidMappingError(
                        f"communication {edge!r} listed twice on link {link!r}"
                    )
                listed[link].add(edge)
        if {k: v for k, v in listed.items() if v} != {k: v for k, v in expected.items() if v}:
            raise InvalidMappingError(
                "communication order does not match the set of cross-processor edges"
            )

    def _validate_acyclic(self) -> None:
        """Check, by a Kahn pass, that the orderings respect the precedence constraints."""
        successors = {
            task: list(targets) for task, targets in self._workflow.successor_map().items()
        }
        for tasks in self._processor_order.values():
            for earlier, later in zip(tasks, tasks[1:]):
                successors[earlier].append(later)
        indegree = Counter(chain.from_iterable(successors.values()))
        reached = [task for task in successors if not indegree[task]]
        for task in reached:  # grows while it is walked
            for later in successors[task]:
                indegree[later] -= 1
                if not indegree[later]:
                    reached.append(later)
        if len(reached) != len(successors):
            raise InvalidMappingError(
                "per-processor ordering contradicts the workflow precedence constraints"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Mapping(workflow={self._workflow.name!r}, cluster={self._cluster.name!r}, "
            f"processors_used={len(self.used_processors())})"
        )
