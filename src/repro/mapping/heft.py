"""HEFT — Heterogeneous Earliest Finish Time list scheduling.

The paper produces the fixed mapping and ordering with "our own basic HEFT
implementation without special techniques for tie-breaking" (§6.1).  This
module is that implementation:

1. *Rank phase*: every task receives an upward rank
   ``rank_u(v) = avg_cost(v) + max_{(v,w)} (avg_comm(v,w) + rank_u(w))``
   where ``avg_cost`` averages the execution time over all processors and
   ``avg_comm`` is the communication time when the endpoints are on different
   processors (bandwidth normalised to 1), scaled by the probability that two
   uniformly chosen processors differ.
2. *Processor-selection phase*: tasks are processed in non-increasing rank
   order; each is placed on the processor minimising its earliest finish time
   (EFT), using the standard insertion policy that may fill idle gaps.

Both phases read task durations from one table built per call, which
computes each distinct ``(work, speed)`` pair once.

The result is returned both as a :class:`~repro.mapping.mapping.Mapping`
(assignment + per-processor order + per-link communication order, which is
all CaWoSched needs) and, optionally, as the concrete HEFT schedule (start
times) for inspection.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.mapping.mapping import Mapping
from repro.platform_.cluster import Cluster
from repro.platform_.processor import ProcessorSpec
from repro.utils.errors import InvalidMappingError
from repro.workflow.dag import Workflow

__all__ = ["HeftResult", "heft_mapping", "upward_ranks"]


@dataclass
class HeftResult:
    """Outcome of a HEFT run.

    Attributes
    ----------
    mapping:
        The fixed mapping (assignment, per-processor order, communication
        order) handed to CaWoSched.
    start_times:
        The HEFT schedule's task start times (informational; CaWoSched only
        uses the mapping and recomputes start times itself).
    finish_times:
        The HEFT schedule's task finish times.
    makespan:
        The HEFT makespan (max finish time).
    ranks:
        The upward ranks used for the task priority order.
    """

    mapping: Mapping
    start_times: Dict[Hashable, int]
    finish_times: Dict[Hashable, int]
    makespan: int
    ranks: Dict[Hashable, float]


def _duration_table(
    workflow: Workflow, processors: Sequence[ProcessorSpec]
) -> Dict[Hashable, List[int]]:
    """Return task -> running time on each of *processors*, in processor order.

    :meth:`~repro.platform_.processor.ProcessorSpec.execution_time` is
    computed once per distinct work volume and speed, on works the workflow
    has already checked.  Tasks of equal work share one (read-only) row.
    """
    speeds = list(dict.fromkeys(proc.speed for proc in processors))
    column = [speeds.index(proc.speed) for proc in processors]
    rows: Dict[int, List[int]] = {}
    table: Dict[Hashable, List[int]] = {}
    for task in workflow.tasks():
        work = workflow.work(task)
        row = rows.get(work)
        if row is None:
            # ``or 1``: the ceiling is 0 only for an infinite speed.
            per_speed = [math.ceil(work / speed) or 1 for speed in speeds]
            row = rows[work] = [per_speed[index] for index in column]
        table[task] = row
    return table


def upward_ranks(workflow: Workflow, cluster: Cluster) -> Dict[Hashable, float]:
    """Compute HEFT upward ranks for every task.

    The average execution time of a task is its work divided by each
    processor speed, averaged; the average communication cost of an edge is
    its data volume (bandwidth 1), multiplied by the probability
    ``(P - 1) / P`` that the two endpoints land on different processors.
    """
    processors = cluster.processors()
    return _ranks(workflow, _duration_table(workflow, processors), len(processors))


def _ranks(
    workflow: Workflow, durations: Dict[Hashable, List[int]], num_procs: int
) -> Dict[Hashable, float]:
    """Upward ranks from a :func:`_duration_table`."""
    cross_probability = (num_procs - 1) / num_procs if num_procs > 1 else 0.0
    successors = workflow.successor_map()
    ranks: Dict[Hashable, float] = {}
    for task in reversed(workflow.topological_order()):
        best_successor = 0.0
        for successor, volume in successors[task].items():
            comm = volume * cross_probability
            best_successor = max(best_successor, comm + ranks[successor])
        ranks[task] = sum(durations[task]) / num_procs + best_successor
    return ranks


def heft_mapping(workflow: Workflow, cluster: Cluster) -> HeftResult:
    """Run HEFT and return the fixed mapping (plus the HEFT schedule).

    Parameters
    ----------
    workflow:
        The workflow to map.  Must be a valid DAG.
    cluster:
        The heterogeneous compute cluster.

    Notes
    -----
    Ties in the priority list are broken by task insertion order (no special
    tie-breaking, as in the paper).  The insertion policy scans the idle gaps
    of each processor and places the task in the earliest gap that fits.
    """
    processors = cluster.processors()
    durations = _duration_table(workflow, processors)
    ranks = _ranks(workflow, durations, len(processors))
    schedule = _ListSchedule(workflow, processors)
    for task in schedule.priority(ranks):
        best: Optional[Tuple[int, int]] = None  # (finish, start)
        for name, _, start, finish in schedule.candidates(task, durations[task]):
            if best is None or (finish, start) < best:
                best, best_name = (finish, start), name
        assert best is not None
        schedule.place(task, best_name, best[1], best[0])
    return schedule.result(cluster, ranks)


# --------------------------------------------------------------------------- #
# Processor-selection phase
# --------------------------------------------------------------------------- #
class _ListSchedule:
    """The partial schedule of the processor-selection phase.

    Shared by :func:`heft_mapping` and the carbon-aware variant, which differ
    only in how they pick one of the :meth:`candidates`.
    """

    def __init__(self, workflow: Workflow, processors: Sequence[ProcessorSpec]) -> None:
        self.workflow = workflow
        self.names = [proc.name for proc in processors]
        # Processors of one class give identical candidates while idle.
        self.classes = [(proc.speed, proc.total_power) for proc in processors]
        self.assignment: Dict[Hashable, Hashable] = {}
        self.start_times: Dict[Hashable, int] = {}
        self.finish_times: Dict[Hashable, int] = {}
        # Occupied slots per processor, kept sorted by start time.
        self.busy: Dict[Hashable, List[Tuple[int, int, Hashable]]] = {
            name: [] for name in self.names
        }

    def priority(self, ranks: Dict[Hashable, float]) -> List[Hashable]:
        """Non-increasing rank order; the stable sort keeps insertion order for ties."""
        return sorted(self.workflow.tasks(), key=lambda task: -ranks[task])

    def candidates(
        self, task: Hashable, durations: List[int]
    ) -> Iterator[Tuple[Hashable, int, int, int]]:
        """Yield ``(processor, duration, start, finish)`` of *task* per processor.

        *durations* is the task's :func:`_duration_table` row.  A
        predecessor's data arrives at its finish time on its own processor
        and ``data`` time units later elsewhere (bandwidth 1), so on a
        processor hosting no predecessor the task is ready at the latest
        arrival over all incoming edges.  An idle processor is skipped when
        one of its ``(speed, total_power)`` class already yielded an idle
        candidate: its candidate would be the same, and both selection
        phases keep the earlier of two equal candidates.
        """
        finish_times = self.finish_times
        remote = 0
        incoming = []
        hosts = set()
        for predecessor, volume in self.workflow.predecessor_map()[task].items():
            finish = finish_times.get(predecessor)
            if finish is None:
                # Predecessor has lower rank — allowed by HEFT only if the
                # rank computation failed; guard explicitly.
                raise InvalidMappingError(
                    "HEFT priority order is not a topological order; "
                    "check the workflow weights"
                )
            proc = self.assignment[predecessor]
            hosts.add(proc)
            incoming.append((proc, finish, finish + volume))
            if finish + volume > remote:
                remote = finish + volume
        idle_classes = set()
        for name, duration, kind in zip(self.names, durations, self.classes):
            slots = self.busy[name]
            if not slots:
                if kind in idle_classes:
                    continue
                idle_classes.add(kind)
                yield name, duration, remote, remote + duration
                continue
            ready = remote
            if name in hosts:
                ready = max(finish if at == name else arrival for at, finish, arrival in incoming)
            start = _earliest_slot(slots, ready, duration)
            yield name, duration, start, start + duration

    def place(self, task: Hashable, name: Hashable, start: int, finish: int) -> None:
        """Commit *task* to processor *name* over ``[start, finish)``."""
        self.assignment[task] = name
        self.start_times[task] = start
        self.finish_times[task] = finish
        _insert_slot(self.busy[name], (start, finish, task))

    def result(self, cluster: Cluster, ranks: Dict[Hashable, float]) -> HeftResult:
        """Return the validated mapping and the schedule as a :class:`HeftResult`."""
        processor_order = {
            name: [task for _, _, task in sorted(slots)]
            for name, slots in self.busy.items()
            if slots
        }
        mapping = Mapping(
            self.workflow, cluster, self.assignment, processor_order=processor_order
        )
        return HeftResult(
            mapping=mapping,
            start_times=self.start_times,
            finish_times=self.finish_times,
            makespan=max(self.finish_times.values(), default=0),
            ranks=ranks,
        )


# --------------------------------------------------------------------------- #
# Insertion policy helpers
# --------------------------------------------------------------------------- #
def _earliest_slot(slots: List[Tuple[int, int, Hashable]], ready: int, duration: int) -> int:
    """Return the earliest start >= *ready* of a gap of length *duration*.

    *slots* is the sorted list of (start, finish, task) occupied intervals of
    one processor.
    """
    candidate = ready
    for slot_start, slot_finish, _ in slots:
        if candidate + duration <= slot_start:
            return candidate
        if slot_finish > candidate:
            candidate = slot_finish
    return candidate


def _insert_slot(slots: List[Tuple[int, int, Hashable]], slot: Tuple[int, int, Hashable]) -> None:
    """Insert *slot* keeping the list sorted by start time (after equal starts)."""
    bisect.insort_right(slots, slot, key=itemgetter(0))
