"""The :class:`Workflow` DAG model.

A workflow is a directed acyclic graph whose vertices are tasks (with a
positive integer *work* volume) and whose edges are precedence constraints
annotated with a non-negative integer *data* volume (the amount of data that
must be communicated if the two endpoint tasks run on different processors).

The class wraps a :class:`networkx.DiGraph` and adds

* strict validation (positive weights, acyclicity, known endpoints),
* deterministic topological orders,
* convenience accessors used throughout the library (sources, sinks,
  total work, critical path, level structure),
* structural editing helpers used by the generators (scaling, relabelling,
  pruning of pseudo-tasks).

The underlying graph is reachable through :attr:`Workflow.graph` for read-only
interoperability with :mod:`networkx`; mutating it directly bypasses the
validation and is not supported.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.utils.errors import CyclicWorkflowError, InvalidWorkflowError
from repro.utils.names import decode_name, encode_name
from repro.utils.ordering import topological_order
from repro.utils.validation import check_non_negative_int, check_positive_int
from repro.workflow.task import Task

__all__ = ["Workflow"]


class Workflow:
    """A workflow DAG with integer task and communication weights.

    Parameters
    ----------
    name:
        Human-readable workflow name (e.g. ``"atacseq-200"``).

    Examples
    --------
    >>> wf = Workflow("demo")
    >>> wf.add_task("a", work=3)
    >>> wf.add_task("b", work=2)
    >>> wf.add_dependency("a", "b", data=1)
    >>> wf.number_of_tasks
    2
    >>> wf.topological_order()
    ['a', 'b']
    """

    def __init__(self, name: str = "workflow") -> None:
        self._name = str(name)
        self._graph = nx.DiGraph()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_task(
        self,
        name: Hashable,
        work: int = 1,
        category: Optional[str] = None,
    ) -> None:
        """Add a task to the workflow.

        Raises
        ------
        InvalidWorkflowError
            If a task with the same name already exists or the work volume is
            not a positive integer.
        """
        if self._graph.has_node(name):
            raise InvalidWorkflowError(f"task {name!r} already exists")
        try:
            work = check_positive_int(work, "work")
        except (TypeError, ValueError) as exc:
            raise InvalidWorkflowError(str(exc)) from exc
        self._graph.add_node(name, work=work, category=category)

    def add_tasks(self, tasks: Iterable[Task]) -> None:
        """Add several :class:`~repro.workflow.task.Task` objects at once."""
        for task in tasks:
            self.add_task(task.name, work=task.work, category=task.category)

    def add_dependency(self, source: Hashable, target: Hashable, data: int = 0) -> None:
        """Add a precedence constraint ``source -> target``.

        Parameters
        ----------
        source, target:
            Names of already-added tasks.
        data:
            Communication volume on the edge (non-negative integer).  The
            volume only matters when the two tasks end up on different
            processors.

        Raises
        ------
        InvalidWorkflowError
            If an endpoint is unknown, the edge already exists, the edge is a
            self-loop, or the data volume is negative.
        CyclicWorkflowError
            If adding the edge would create a cycle.
        """
        if source == target:
            raise InvalidWorkflowError(f"self-loop on task {source!r} is not allowed")
        for endpoint in (source, target):
            if not self._graph.has_node(endpoint):
                raise InvalidWorkflowError(f"unknown task {endpoint!r}")
        if self._graph.has_edge(source, target):
            raise InvalidWorkflowError(f"edge {source!r} -> {target!r} already exists")
        try:
            data = check_non_negative_int(data, "data")
        except (TypeError, ValueError) as exc:
            raise InvalidWorkflowError(str(exc)) from exc
        # Reject edges that would close a cycle *before* mutating the graph.
        # No path can leave a target without successors, so generators that
        # wire edges into fresh tasks skip the search.
        if self._graph.succ[target] and nx.has_path(self._graph, target, source):
            raise CyclicWorkflowError(
                f"edge {source!r} -> {target!r} would create a cycle"
            )
        self._graph.add_edge(source, target, data=data)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Workflow name."""
        return self._name

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying :class:`networkx.DiGraph` (treat as read-only)."""
        return self._graph

    @property
    def number_of_tasks(self) -> int:
        """Number of tasks (vertices)."""
        return self._graph.number_of_nodes()

    @property
    def number_of_dependencies(self) -> int:
        """Number of precedence edges."""
        return self._graph.number_of_edges()

    def tasks(self) -> List[Hashable]:
        """Return the list of task names (insertion order)."""
        return list(self._graph.nodes)

    def dependencies(self) -> List[Tuple[Hashable, Hashable]]:
        """Return the list of precedence edges."""
        return list(self._graph.edges)

    def has_task(self, name: Hashable) -> bool:
        """Return whether a task called *name* exists."""
        return self._graph.has_node(name)

    def has_dependency(self, source: Hashable, target: Hashable) -> bool:
        """Return whether the edge ``source -> target`` exists."""
        return self._graph.has_edge(source, target)

    def work(self, name: Hashable) -> int:
        """Return the work volume of task *name*."""
        try:
            return int(self._graph.nodes[name]["work"])
        except KeyError as exc:
            raise InvalidWorkflowError(f"unknown task {name!r}") from exc

    def category(self, name: Hashable) -> Optional[str]:
        """Return the category label of task *name* (``None`` if unset)."""
        try:
            return self._graph.nodes[name].get("category")
        except KeyError as exc:
            raise InvalidWorkflowError(f"unknown task {name!r}") from exc

    def data(self, source: Hashable, target: Hashable) -> int:
        """Return the communication volume of edge ``source -> target``."""
        try:
            return int(self._graph.edges[source, target]["data"])
        except KeyError as exc:
            raise InvalidWorkflowError(
                f"unknown dependency {source!r} -> {target!r}"
            ) from exc

    def task(self, name: Hashable) -> Task:
        """Return a :class:`~repro.workflow.task.Task` view of task *name*."""
        return Task(name=name, work=self.work(name), category=self.category(name))

    def predecessors(self, name: Hashable) -> List[Hashable]:
        """Return the direct predecessors of task *name*."""
        if not self._graph.has_node(name):
            raise InvalidWorkflowError(f"unknown task {name!r}")
        return list(self._graph.predecessors(name))

    def successors(self, name: Hashable) -> List[Hashable]:
        """Return the direct successors of task *name*."""
        if not self._graph.has_node(name):
            raise InvalidWorkflowError(f"unknown task {name!r}")
        return list(self._graph.successors(name))

    def sources(self) -> List[Hashable]:
        """Return tasks without predecessors (entry tasks)."""
        return [n for n in self._graph.nodes if self._graph.in_degree(n) == 0]

    def sinks(self) -> List[Hashable]:
        """Return tasks without successors (exit tasks)."""
        return [n for n in self._graph.nodes if self._graph.out_degree(n) == 0]

    def total_work(self) -> int:
        """Return the sum of all task work volumes."""
        return sum(int(d["work"]) for _, d in self._graph.nodes(data=True))

    def total_data(self) -> int:
        """Return the sum of all edge communication volumes."""
        return sum(int(d["data"]) for _, _, d in self._graph.edges(data=True))

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[Hashable]:
        """Return a deterministic topological order of the tasks."""
        return topological_order(self._graph)

    def levels(self) -> Dict[Hashable, int]:
        """Return the level (longest path length in edges from a source) per task."""
        level: Dict[Hashable, int] = {}
        for node in self.topological_order():
            preds = list(self._graph.predecessors(node))
            level[node] = 0 if not preds else 1 + max(level[p] for p in preds)
        return level

    def depth(self) -> int:
        """Return the number of levels (length of the longest chain, in tasks)."""
        if self.number_of_tasks == 0:
            return 0
        return 1 + max(self.levels().values())

    def critical_path_work(self) -> int:
        """Return the maximum total work along any path (ignoring communications).

        This is a lower bound on the makespan of any schedule executed at unit
        speed, and is used to sanity-check deadlines.
        """
        best: Dict[Hashable, int] = {}
        for node in self.topological_order():
            preds = list(self._graph.predecessors(node))
            incoming = max((best[p] for p in preds), default=0)
            best[node] = incoming + self.work(node)
        return max(best.values(), default=0)

    def validate(self) -> None:
        """Validate the workflow structure.

        Raises
        ------
        CyclicWorkflowError
            If the graph has a cycle.
        InvalidWorkflowError
            If a weight annotation is missing or out of range.
        """
        if not nx.is_directed_acyclic_graph(self._graph):
            raise CyclicWorkflowError(f"workflow {self._name!r} contains a cycle")
        for node, attrs in self._graph.nodes(data=True):
            work = attrs.get("work")
            if not isinstance(work, int) or work <= 0:
                raise InvalidWorkflowError(
                    f"task {node!r} has invalid work {work!r} (positive int required)"
                )
        for source, target, attrs in self._graph.edges(data=True):
            data = attrs.get("data")
            if not isinstance(data, int) or data < 0:
                raise InvalidWorkflowError(
                    f"edge {source!r} -> {target!r} has invalid data {data!r}"
                )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation of the workflow.

        Task and edge insertion order is preserved, so a round trip through
        :meth:`from_dict` reproduces the same deterministic topological order.
        """
        return {
            "name": self._name,
            "tasks": [
                {
                    "name": encode_name(node),
                    "work": int(attrs["work"]),
                    "category": attrs.get("category"),
                }
                for node, attrs in self._graph.nodes(data=True)
            ],
            "dependencies": [
                [encode_name(source), encode_name(target), int(attrs["data"])]
                for source, target, attrs in self._graph.edges(data=True)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Workflow":
        """Rebuild a workflow from :meth:`to_dict` output.

        Raises
        ------
        TypeError
            If *data* is not a mapping.
        """
        if not isinstance(data, Mapping):
            raise TypeError(f"workflow must be an object, got {type(data).__name__}")
        workflow = cls(str(data.get("name", "workflow")))
        for entry in data["tasks"]:
            workflow.add_task(
                decode_name(entry["name"]),
                work=int(entry["work"]),
                category=entry.get("category"),
            )
        for source, target, volume in data["dependencies"]:
            workflow.add_dependency(
                decode_name(source), decode_name(target), data=int(volume)
            )
        return workflow

    # ------------------------------------------------------------------ #
    # Editing helpers (used by generators and .dot import)
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "Workflow":
        """Return a deep copy of the workflow (optionally renamed)."""
        clone = Workflow(name if name is not None else self._name)
        clone._graph = self._graph.copy()
        return clone

    def relabel(self, mapping: Mapping[Hashable, Hashable], name: Optional[str] = None) -> "Workflow":
        """Return a copy with task names substituted according to *mapping*.

        Tasks not present in *mapping* keep their name.  The mapping must not
        merge two distinct tasks into one.
        """
        targets = [mapping.get(n, n) for n in self._graph.nodes]
        if len(set(targets)) != len(targets):
            raise InvalidWorkflowError("relabel mapping merges distinct tasks")
        clone = Workflow(name if name is not None else self._name)
        clone._graph = nx.relabel_nodes(self._graph, dict(mapping), copy=True)
        return clone

    def remove_task(self, name: Hashable, *, reconnect: bool = False) -> None:
        """Remove a task.

        Parameters
        ----------
        name:
            Task to remove.
        reconnect:
            If true, add an edge from every predecessor to every successor of
            the removed task (with communication volume 0) so that transitive
            precedence is preserved.  This is what the Nextflow pseudo-task
            pruning uses.
        """
        if not self._graph.has_node(name):
            raise InvalidWorkflowError(f"unknown task {name!r}")
        if reconnect:
            preds = list(self._graph.predecessors(name))
            succs = list(self._graph.successors(name))
            for p in preds:
                for s in succs:
                    if p != s and not self._graph.has_edge(p, s):
                        self._graph.add_edge(p, s, data=0)
        self._graph.remove_node(name)

    def scale_work(self, factor: float) -> None:
        """Multiply every task work volume by *factor* (rounded, at least 1)."""
        if factor <= 0:
            raise InvalidWorkflowError(f"scale factor must be positive, got {factor}")
        for node in self._graph.nodes:
            new_work = max(1, int(round(self._graph.nodes[node]["work"] * factor)))
            self._graph.nodes[node]["work"] = new_work

    def set_work(self, name: Hashable, work: int) -> None:
        """Set the work volume of task *name*."""
        if not self._graph.has_node(name):
            raise InvalidWorkflowError(f"unknown task {name!r}")
        self._graph.nodes[name]["work"] = check_positive_int(work, "work")

    def set_data(self, source: Hashable, target: Hashable, data: int) -> None:
        """Set the communication volume of edge ``source -> target``."""
        if not self._graph.has_edge(source, target):
            raise InvalidWorkflowError(f"unknown dependency {source!r} -> {target!r}")
        self._graph.edges[source, target]["data"] = check_non_negative_int(data, "data")

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._graph.nodes)

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __contains__(self, name: Hashable) -> bool:
        return self._graph.has_node(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workflow(name={self._name!r}, tasks={self.number_of_tasks}, "
            f"dependencies={self.number_of_dependencies})"
        )
