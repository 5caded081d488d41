"""The :class:`Workflow` DAG model.

A workflow is a directed acyclic graph whose vertices are tasks (with a
positive integer *work* volume) and whose edges are precedence constraints
annotated with a non-negative integer *data* volume (the amount of data that
must be communicated if the two endpoint tasks run on different processors).

The class keeps plain insertion-ordered dicts (task -> work, task ->
category, and ``succ[u][v]`` / ``pred[v][u]`` -> data volume) and adds

* strict validation on every write (positive integer work, non-negative
  integer data, acyclicity, known endpoints), so a workflow is valid by
  construction,
* deterministic topological orders,
* convenience accessors used throughout the library (sources, sinks,
  total work, critical path, level structure),
* structural editing helpers used by the generators (weight updates, task
  removal with reconnection).

:meth:`Workflow.successor_map` and :meth:`Workflow.predecessor_map` expose the
adjacency for read-only use; mutating them bypasses the validation and is not
supported.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Tuple

from repro.utils.errors import CyclicWorkflowError, InvalidWorkflowError
from repro.utils.names import decode_name, encode_name
from repro.utils.ordering import topological_order
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["Workflow"]


def _checked(check, value, what: str) -> int:
    """Return ``check(value, what)``, raising :class:`InvalidWorkflowError` on failure."""
    try:
        return check(value, what)
    except (TypeError, ValueError) as exc:
        raise InvalidWorkflowError(str(exc)) from exc


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
        self._work: Dict[Hashable, int] = {}
        self._category: Dict[Hashable, Optional[str]] = {}
        self._succ: Dict[Hashable, Dict[Hashable, int]] = {}
        self._pred: Dict[Hashable, Dict[Hashable, int]] = {}

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
        if name in self._work:
            raise InvalidWorkflowError(f"task {name!r} already exists")
        self._work[name] = _checked(check_positive_int, work, "work")
        self._category[name] = category
        self._succ[name] = {}
        self._pred[name] = {}

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
            if endpoint not in self._work:
                raise InvalidWorkflowError(f"unknown task {endpoint!r}")
        if target in self._succ[source]:
            raise InvalidWorkflowError(f"edge {source!r} -> {target!r} already exists")
        data = _checked(check_non_negative_int, data, "data")
        # Reject edges that would close a cycle *before* mutating the graph.
        # The search starts at the target's successors, so generators that
        # wire edges into fresh tasks (no successors yet) skip it.
        stack, seen = list(self._succ[target]), set()
        while stack:
            node = stack.pop()
            if node == source:
                raise CyclicWorkflowError(f"edge {source!r} -> {target!r} would create a cycle")
            if node not in seen:
                seen.add(node)
                stack.extend(self._succ[node])
        self._succ[source][target] = data
        self._pred[target][source] = data

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Workflow name."""
        return self._name

    @property
    def number_of_tasks(self) -> int:
        """Number of tasks (vertices)."""
        return len(self._work)

    @property
    def number_of_dependencies(self) -> int:
        """Number of precedence edges."""
        return sum(len(targets) for targets in self._succ.values())

    def tasks(self) -> List[Hashable]:
        """Return the list of task names (insertion order)."""
        return list(self._work)

    def dependencies(self) -> List[Tuple[Hashable, Hashable]]:
        """Return the precedence edges, by source task and then by insertion order."""
        return [(source, target) for source, targets in self._succ.items() for target in targets]

    def successor_map(self) -> Dict[Hashable, Dict[Hashable, int]]:
        """Return the task -> {successor: data} map (treat as read-only)."""
        return self._succ

    def predecessor_map(self) -> Dict[Hashable, Dict[Hashable, int]]:
        """Return the task -> {predecessor: data} map (treat as read-only)."""
        return self._pred

    def has_task(self, name: Hashable) -> bool:
        """Return whether a task called *name* exists."""
        return name in self._work

    def has_dependency(self, source: Hashable, target: Hashable) -> bool:
        """Return whether the edge ``source -> target`` exists."""
        return target in self._succ.get(source, ())

    def work(self, name: Hashable) -> int:
        """Return the work volume of task *name*."""
        try:
            return self._work[name]
        except KeyError as exc:
            raise InvalidWorkflowError(f"unknown task {name!r}") from exc

    def category(self, name: Hashable) -> Optional[str]:
        """Return the category label of task *name* (``None`` if unset)."""
        try:
            return self._category[name]
        except KeyError as exc:
            raise InvalidWorkflowError(f"unknown task {name!r}") from exc

    def data(self, source: Hashable, target: Hashable) -> int:
        """Return the communication volume of edge ``source -> target``."""
        try:
            return self._succ[source][target]
        except KeyError as exc:
            raise InvalidWorkflowError(
                f"unknown dependency {source!r} -> {target!r}"
            ) from exc

    def predecessors(self, name: Hashable) -> List[Hashable]:
        """Return the direct predecessors of task *name*."""
        if name not in self._pred:
            raise InvalidWorkflowError(f"unknown task {name!r}")
        return list(self._pred[name])

    def successors(self, name: Hashable) -> List[Hashable]:
        """Return the direct successors of task *name*."""
        if name not in self._succ:
            raise InvalidWorkflowError(f"unknown task {name!r}")
        return list(self._succ[name])

    def sources(self) -> List[Hashable]:
        """Return tasks without predecessors (entry tasks)."""
        return [n for n, preds in self._pred.items() if not preds]

    def sinks(self) -> List[Hashable]:
        """Return tasks without successors (exit tasks)."""
        return [n for n, succs in self._succ.items() if not succs]

    def total_work(self) -> int:
        """Return the sum of all task work volumes."""
        return sum(self._work.values())

    def total_data(self) -> int:
        """Return the sum of all edge communication volumes."""
        return sum(sum(targets.values()) for targets in self._succ.values())

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[Hashable]:
        """Return a deterministic topological order of the tasks."""
        return topological_order(self._succ)

    def levels(self) -> Dict[Hashable, int]:
        """Return the level (longest path length in edges from a source) per task."""
        level: Dict[Hashable, int] = {}
        for node in self.topological_order():
            preds = self._pred[node]
            level[node] = 0 if not preds else 1 + max(level[p] for p in preds)
        return level

    def depth(self) -> int:
        """Return the number of levels (length of the longest chain, in tasks)."""
        if self.number_of_tasks == 0:
            return 0
        return 1 + max(self.levels().values())

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
                {"name": encode_name(node), "work": work, "category": self._category[node]}
                for node, work in self._work.items()
            ],
            "dependencies": [
                [encode_name(source), encode_name(target), data]
                for source, targets in self._succ.items()
                for target, data in targets.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Workflow":
        """Rebuild a workflow from :meth:`to_dict` output.

        Weights are passed through unconverted, so a non-integer ``work`` or
        ``data`` is rejected rather than truncated.

        Raises
        ------
        TypeError
            If *data* is not a mapping.
        InvalidWorkflowError
            If a weight is not an integer in range, or a task or edge repeats.
        """
        if not isinstance(data, Mapping):
            raise TypeError(f"workflow must be an object, got {type(data).__name__}")
        workflow = cls(str(data.get("name", "workflow")))
        for entry in data["tasks"]:
            workflow.add_task(
                decode_name(entry["name"]),
                work=entry["work"],
                category=entry.get("category"),
            )
        for source, target, volume in data["dependencies"]:
            workflow.add_dependency(decode_name(source), decode_name(target), data=volume)
        return workflow

    # ------------------------------------------------------------------ #
    # Editing helpers (used by the generators)
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "Workflow":
        """Return a deep copy of the workflow (optionally renamed).

        Each copied task lists its predecessors in :meth:`dependencies` order.
        """
        clone = Workflow(name if name is not None else self._name)
        clone._work = dict(self._work)
        clone._category = dict(self._category)
        clone._succ = {node: dict(targets) for node, targets in self._succ.items()}
        clone._pred = {node: {} for node in self._work}
        for source, targets in self._succ.items():
            for target, data in targets.items():
                clone._pred[target][source] = data
        return clone

    def set_work(self, name: Hashable, work: int) -> None:
        """Set the work volume of task *name*.

        Raises
        ------
        InvalidWorkflowError
            If the task is unknown or *work* is not a positive integer.
        """
        if name not in self._work:
            raise InvalidWorkflowError(f"unknown task {name!r}")
        self._work[name] = _checked(check_positive_int, work, "work")

    def set_data(self, source: Hashable, target: Hashable, data: int) -> None:
        """Set the communication volume of edge ``source -> target``.

        Raises
        ------
        InvalidWorkflowError
            If the edge is unknown or *data* is not a non-negative integer.
        """
        if not self.has_dependency(source, target):
            raise InvalidWorkflowError(f"unknown dependency {source!r} -> {target!r}")
        self._succ[source][target] = self._pred[target][source] = _checked(
            check_non_negative_int, data, "data"
        )

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._work)

    def __len__(self) -> int:
        return len(self._work)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._work

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workflow(name={self._name!r}, tasks={self.number_of_tasks}, "
            f"dependencies={self.number_of_dependencies})"
        )
