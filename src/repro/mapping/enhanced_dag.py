"""Construction of the communication-enhanced DAG ``Gc``.

Given a workflow, a cluster and a fixed :class:`~repro.mapping.mapping.Mapping`,
the communication-enhanced DAG replaces every cross-processor edge by a
*communication task* executed on a fictional link processor (§3 of the paper):

* ``Vc`` contains every original task plus one communication task per edge in
  ``E'`` (cross-processor edges with positive data volume),
* ``Ec`` contains the same-processor original edges, the two edges
  ``(u, comm_uv)`` and ``(comm_uv, v)`` per communication, the per-processor
  ordering chains and the per-link communication ordering chains (``E''``),
* every node carries an integer *duration* (running time on its assigned
  processor / link) and the name of that processor.

The resulting :class:`EnhancedDAG` is the object all schedulers, cost
evaluators and exact algorithms work on.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.mapping.mapping import Mapping
from repro.platform_.cluster import ExtendedPlatform, link_name
from repro.platform_.processor import ProcessorSpec
from repro.utils.errors import CyclicWorkflowError, InvalidMappingError
from repro.utils.ordering import topological_order
from repro.utils.rng import RNGLike
from repro.workflow.task import CommTask

__all__ = ["EnhancedDAG", "build_enhanced_dag"]

Edge = Tuple[Hashable, Hashable]


class EnhancedDAG:
    """The communication-enhanced DAG ``Gc`` together with its platform.

    Instances are built by :func:`build_enhanced_dag`; the constructor is
    considered internal.

    Attributes of every node (exposed through accessors):

    * ``duration`` — integer running time on the assigned processor,
    * ``processor`` — name of the (compute or link) processor,
    * ``is_comm`` — whether the node is a communication task.

    The DAG is immutable, so what depends on it alone is computed once, in
    its memo (:meth:`_memoised`): the critical path, the node power maps,
    the rows by topological rank that the scheduling core runs on (the
    EST/LST graph rows, the greedy phase's active powers, the local
    search's walk and kernel rows), the feasibility check's
    constraint rows, the block-window sums of the refined subdivision and
    the wire payload's ``mapping`` and ``links`` with their canonical
    text.  A value lives on the narrowest object it depends on: what also
    depends on the profile or the deadline is memoised per instance
    (``ProblemInstance._memoised``).
    """

    def __init__(
        self,
        platform: ExtendedPlatform,
        mapping: Mapping,
        processor_tasks: Dict[Hashable, List[Hashable]],
        durations: Dict[Hashable, int],
        processors: Dict[Hashable, Hashable],
        comm_nodes: Set[Hashable],
        succ: Dict[Hashable, Dict[Hashable, None]],
        pred: Dict[Hashable, Dict[Hashable, None]],
    ) -> None:
        self._platform = platform
        self._mapping = mapping
        self._processor_tasks = processor_tasks
        self._processors = processors
        self._comm_nodes = comm_nodes
        try:
            self._order = topological_order(succ)
        except CyclicWorkflowError as exc:
            raise InvalidMappingError(
                "the communication-enhanced DAG contains a cycle; the mapping's "
                "orderings are inconsistent with the precedence constraints"
            ) from exc
        # Read-only maps shared by the scheduling kernels, keyed in
        # topological order: the DAG is immutable after construction.
        self._duration_map = {node: durations[node] for node in self._order}
        self._pred_map = {node: list(pred[node]) for node in self._order}
        self._succ_map = {node: list(succ[node]) for node in self._order}
        self._memo: Dict[Hashable, object] = {}

    def _memoised(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Return ``compute()``, computed once per DAG under *key* (treat as read-only).

        Every problem instance over this DAG shares the value.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # ------------------------------------------------------------------ #
    @property
    def platform(self) -> ExtendedPlatform:
        """The extended platform (compute processors + used links)."""
        return self._platform

    @property
    def mapping(self) -> Mapping:
        """The fixed mapping this DAG was built from."""
        return self._mapping

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ``N = n + |E'|``."""
        return len(self._processors)

    @property
    def num_comm_tasks(self) -> int:
        """Number of communication tasks ``|E'|``."""
        return len(self._comm_nodes)

    def nodes(self) -> List[Hashable]:
        """Return all node names: original tasks, then communication tasks."""
        return list(self._processors)

    def edges(self) -> List[Edge]:
        """Return all precedence edges of ``Ec``, grouped by source in :meth:`nodes` order."""
        return [
            (source, target) for source in self._processors for target in self._succ_map[source]
        ]

    def duration(self, node: Hashable) -> int:
        """Return the running time of *node* on its assigned processor."""
        return self._duration_map[node]

    def duration_map(self) -> Dict[Hashable, int]:
        """Return the node → duration map (treat as read-only)."""
        return self._duration_map

    def predecessor_map(self) -> Dict[Hashable, List[Hashable]]:
        """Return the node → predecessors map (treat as read-only)."""
        return self._pred_map

    def successor_map(self) -> Dict[Hashable, List[Hashable]]:
        """Return the node → successors map (treat as read-only)."""
        return self._succ_map

    def processor(self, node: Hashable) -> Hashable:
        """Return the name of the processor executing *node*."""
        return self._processors[node]

    def processor_spec(self, node: Hashable) -> ProcessorSpec:
        """Return the :class:`ProcessorSpec` of the processor executing *node*."""
        return self._platform.processor(self.processor(node))

    def is_comm(self, node: Hashable) -> bool:
        """Return whether *node* is a communication task."""
        return node in self._comm_nodes

    def predecessors(self, node: Hashable) -> List[Hashable]:
        """Return the direct predecessors of *node* in ``Gc``."""
        return list(self._pred_map[node])

    def successors(self, node: Hashable) -> List[Hashable]:
        """Return the direct successors of *node* in ``Gc``."""
        return list(self._succ_map[node])

    def topological_order(self) -> List[Hashable]:
        """Return a deterministic topological order of ``Gc`` (cached)."""
        return list(self._order)

    def tasks_on(self, processor: Hashable) -> List[Hashable]:
        """Return the ordered nodes executed by *processor* (compute or link)."""
        return list(self._processor_tasks.get(processor, []))

    def ordered_task_map(self) -> Dict[Hashable, List[Hashable]]:
        """Return the processor → ordered tasks map (treat as read-only)."""
        return self._processor_tasks

    def processors_with_tasks(self) -> List[Hashable]:
        """Return processors (compute and link) that execute at least one node."""
        return [proc for proc, tasks in self._processor_tasks.items() if tasks]

    def critical_path_duration(self) -> int:
        """Return the longest path duration — a lower bound on any makespan (cached)."""
        return self._memoised("critical_path", self._longest_path)

    def _longest_path(self) -> int:
        best: Dict[Hashable, int] = {}
        for node in self._order:
            incoming = max((best[p] for p in self._pred_map[node]), default=0)
            best[node] = incoming + self._duration_map[node]
        return max(best.values(), default=0)

    def __len__(self) -> int:
        return len(self._processors)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._processors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnhancedDAG(nodes={self.num_nodes}, comm_tasks={self.num_comm_tasks}, "
            f"processors={self._platform.num_processors})"
        )


def build_enhanced_dag(
    mapping: Mapping,
    *,
    rng: RNGLike = None,
    platform: Optional[ExtendedPlatform] = None,
) -> EnhancedDAG:
    """Build the communication-enhanced DAG for *mapping*.

    Parameters
    ----------
    mapping:
        The fixed mapping (validated on construction).
    rng:
        Seed or generator used to draw link processor power values (see
        :meth:`~repro.platform_.cluster.ExtendedPlatform.for_links`).
    platform:
        Optional pre-built extended platform.  When given, ``rng`` is ignored
        and the platform's link processors are used as-is; it must provide a
        link processor for every link used by the mapping.  This makes the
        construction fully deterministic, which the wire format
        (:mod:`repro.io.wire`) relies on to reconstruct instances exactly.

    Returns
    -------
    EnhancedDAG
    """
    workflow = mapping.workflow
    cluster = mapping.cluster
    if platform is None:
        platform = ExtendedPlatform.for_links(cluster, mapping.used_links(), rng=rng)
    else:
        if platform.cluster is not cluster and platform.cluster.processors() != cluster.processors():
            raise InvalidMappingError(
                "the given platform's cluster does not match the mapping's cluster"
            )
        for source_proc, target_proc in mapping.used_links():
            if not platform.has_processor(link_name(source_proc, target_proc)):
                raise InvalidMappingError(
                    f"the given platform is missing the link processor for "
                    f"{source_proc!r} -> {target_proc!r}"
                )

    durations: Dict[Hashable, int] = {}
    processors: Dict[Hashable, Hashable] = {}
    processor_tasks: Dict[Hashable, List[Hashable]] = {}

    # Compute tasks.
    for task in workflow.tasks():
        proc = processors[task] = mapping.processor_of(task)
        durations[task] = cluster.processor(proc).execution_time(workflow.work(task))

    # Communication tasks (E').
    comm_nodes: Dict[Edge, Hashable] = {}
    for source, target in mapping.communications():
        comm = CommTask(source, target, volume=workflow.data(source, target))
        link = link_name(mapping.processor_of(source), mapping.processor_of(target))
        durations[comm.name] = platform.processor(link).execution_time(comm.volume)
        processors[comm.name] = link
        comm_nodes[(source, target)] = comm.name

    # Adjacency as node -> {neighbour: None}: adding an edge that already
    # exists (a chain edge parallel to a precedence edge) keeps its position.
    succ: Dict[Hashable, Dict[Hashable, None]] = {node: {} for node in processors}
    pred: Dict[Hashable, Dict[Hashable, None]] = {node: {} for node in processors}

    def add_edge(source: Hashable, target: Hashable) -> None:
        succ[source][target] = pred[target][source] = None

    # Original edges: same-processor (or zero-data) edges stay, cross-processor
    # edges are routed through their communication task.
    for source, target in workflow.dependencies():
        comm = comm_nodes.get((source, target))
        if comm is not None:
            add_edge(source, comm)
            add_edge(comm, target)
        else:
            add_edge(source, target)

    # Per-processor ordering chains.
    for proc, tasks in mapping.processor_order().items():
        if tasks:
            processor_tasks[proc] = list(tasks)
        for earlier, later in zip(tasks, tasks[1:]):
            add_edge(earlier, later)

    # Per-link communication ordering chains (E'').
    for (src_proc, dst_proc), edges in mapping.communication_order().items():
        link = link_name(src_proc, dst_proc)
        ordered_nodes = [comm_nodes[tuple(edge)] for edge in edges]
        if ordered_nodes:
            processor_tasks[link] = list(ordered_nodes)
        for earlier, later in zip(ordered_nodes, ordered_nodes[1:]):
            add_edge(earlier, later)

    return EnhancedDAG(
        platform, mapping, processor_tasks, durations, processors,
        set(comm_nodes.values()), succ, pred,
    )
