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

With ``power_weight > 0`` the same loop is the carbon-aware first pass
sketched in the paper's §7: a processor is chosen by a convex combination of
the task's finish time and the energy it would draw there (duration × (idle +
working power)), each normalised by a platform-wide bound.  ``1`` ignores
finish times entirely (a GreenHEFT-style energy-greedy mapping).  The
``ablation_carbon_heft`` benchmark feeds such mappings to CaWoSched, the
second pass.

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
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.mapping.mapping import Mapping
from repro.platform_.cluster import Cluster
from repro.platform_.processor import ProcessorSpec
from repro.utils.errors import InvalidMappingError
from repro.utils.validation import check_probability
from repro.workflow.dag import Workflow

__all__ = ["HeftResult", "heft_mapping"]


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


def heft_mapping(
    workflow: Workflow, cluster: Cluster, *, power_weight: float = 0.0
) -> HeftResult:
    """Run HEFT and return the fixed mapping (plus the HEFT schedule).

    Parameters
    ----------
    workflow:
        The workflow to map.  Must be a valid DAG.
    cluster:
        The heterogeneous compute cluster.
    power_weight:
        Weight of the energy term in the processor-selection objective: ``0``
        is plain HEFT, ``1`` ignores finish times (energy only).

    Notes
    -----
    Ties in the priority list are broken by task insertion order (no special
    tie-breaking, as in the paper).  The insertion policy scans the idle gaps
    of each processor and places the task in the earliest gap that fits.

    A task's data arrives at a predecessor's finish time on the predecessor's
    own processor and ``data`` time units later elsewhere (bandwidth 1).  An
    idle processor is skipped when an idle one of its ``(speed,
    total_power)`` class was already considered: its candidate would be the
    same, and the earlier of two equal candidates is kept.
    """
    power_weight = check_probability(power_weight, "power_weight")
    processors = cluster.processors()
    durations = _duration_table(workflow, processors)
    ranks = _ranks(workflow, durations, len(processors))
    names = [proc.name for proc in processors]
    powers = [proc.total_power for proc in processors]
    classes = [(proc.speed, proc.total_power) for proc in processors]
    if power_weight:
        # Normalise the finish-time term by a crude serial upper bound so both
        # objective terms live on comparable scales.
        max_active_power = max(powers) or 1
        slowest = min(proc.speed for proc in processors)
        scale = max(1.0, workflow.total_work() / slowest + workflow.total_data())
    predecessors = workflow.predecessor_map()
    assignment: Dict[Hashable, Hashable] = {}
    start_times: Dict[Hashable, int] = {}
    finish_times: Dict[Hashable, int] = {}
    # Occupied slots per processor, kept sorted by start time.
    busy: Dict[Hashable, List[Tuple[int, int, Hashable]]] = {name: [] for name in names}
    # Non-increasing rank order; the stable sort keeps insertion order for ties.
    for task in sorted(workflow.tasks(), key=lambda task: -ranks[task]):
        remote = 0
        incoming = []
        hosts = set()
        for predecessor, volume in predecessors[task].items():
            finish = finish_times.get(predecessor)
            if finish is None:
                # Predecessor has lower rank — allowed by HEFT only if the
                # rank computation failed; guard explicitly.
                raise InvalidMappingError(
                    "HEFT priority order is not a topological order; "
                    "check the workflow weights"
                )
            proc = assignment[predecessor]
            hosts.add(proc)
            incoming.append((proc, finish, finish + volume))
            if finish + volume > remote:
                remote = finish + volume
        best = None
        idle_classes = set()
        for name, duration, power, kind in zip(names, durations[task], powers, classes):
            slots = busy[name]
            if not slots:
                if kind in idle_classes:
                    continue
                idle_classes.add(kind)
                start = remote
            else:
                ready = remote
                if name in hosts:
                    ready = max(
                        finish if at == name else arrival for at, finish, arrival in incoming
                    )
                start = _earliest_slot(slots, ready, duration)
            finish = start + duration
            if power_weight:
                score = (1.0 - power_weight) * (finish / scale) + power_weight * (
                    duration * power / (scale * max_active_power)
                )
                key = (score, finish, start)
            else:
                key = (finish, start)
            if best is None or key < best:
                best, best_name = key, name
        finish, start = best[-2:]
        assignment[task] = best_name
        start_times[task] = start
        finish_times[task] = finish
        _insert_slot(busy[best_name], (start, finish, task))
    processor_order = {
        name: [task for _, _, task in slots] for name, slots in busy.items() if slots
    }
    return HeftResult(
        mapping=Mapping(workflow, cluster, assignment, processor_order=processor_order),
        start_times=start_times,
        finish_times=finish_times,
        makespan=max(finish_times.values(), default=0),
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
