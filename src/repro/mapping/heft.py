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

The selection loop visits only the candidates a placement can change.  A
mapping uses few of the cluster's processors (4.7 of 18 on the experiment
grid, 1.5 of 12 for a simulated job), and all idle processors of one
``(speed, total_power)`` class give the same candidate.  So a task is tried
on the busy processors and on the lowest idle processor of each class, and
candidates compare by their key and then by processor position, as in a
scan of every processor in cluster order.  In plain HEFT the idle classes
are tried fastest first and stop at the first one that finishes later than
the best so far (a slower class cannot run the task in less time), and a
busy processor that cannot finish the task before the best candidate so
far, even with the task's data already there, is not scanned.  A scan
starts at the first slot that finishes after the task's data is ready:
slots are disjoint, so the earlier ones cannot hold it.

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
            rank = volume * cross_probability + ranks[successor]
            if rank > best_successor:
                best_successor = rank
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
    own processor and ``data`` time units later elsewhere (bandwidth 1).
    Each task is tried on every busy processor and on the idle processor of
    lowest position in each ``(speed, total_power)`` class: the other idle
    processors of a class would give the same candidate, and of equal
    candidates the one of lowest position in the cluster is kept.  Plain
    HEFT tries the idle classes fastest first and stops at the first that
    finishes later than the best candidate so far.
    """
    power_weight = check_probability(power_weight, "power_weight")
    processors = cluster.processors()
    durations = _duration_table(workflow, processors)
    ranks = _ranks(workflow, durations, len(processors))
    powers = [proc.total_power for proc in processors]
    if power_weight:
        # Normalise the finish-time term by a crude serial upper bound so both
        # objective terms live on comparable scales.
        max_active_power = max(powers) or 1
        slowest = min(proc.speed for proc in processors)
        scale = max(1.0, workflow.total_work() / slowest + workflow.total_data())

        def _score(finish: int, duration: int, position: int) -> float:
            return (1.0 - power_weight) * (finish / scale) + power_weight * (
                duration * powers[position] / (scale * max_active_power)
            )
    predecessors = workflow.predecessor_map()
    # Processors are positions in cluster order.  Occupied slots per
    # processor, kept sorted by start time; the busy positions, ascending;
    # and per (speed, total_power) class the idle positions, last = lowest.
    busy: List[List[Tuple[int, int, Hashable]]] = [[] for _ in processors]
    busy_positions: List[int] = []
    classes: Dict[Tuple[float, int], List[int]] = {}
    for position, proc in enumerate(processors):
        classes.setdefault((proc.speed, proc.total_power), []).insert(0, position)
    # Fastest class first: in plain HEFT a slower idle class cannot finish sooner.
    idle = sorted(classes.values(), key=lambda queue: -processors[queue[-1]].speed)
    placed: Dict[Hashable, int] = {}
    start_times: Dict[Hashable, int] = {}
    finish_times: Dict[Hashable, int] = {}
    # Non-increasing rank order; the stable sort keeps insertion order for ties.
    for task in sorted(workflow.tasks(), key=ranks.__getitem__, reverse=True):
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
            proc = placed[predecessor]
            hosts.add(proc)
            incoming.append((proc, finish, finish + volume))
            if finish + volume > remote:
                remote = finish + volume
        row = durations[task]
        # A key ends with the position, so of equal candidates the one of
        # lowest position wins, as in a scan of every processor in cluster
        # order.  Idle processors of one class give equal candidates, so only
        # each class's lowest idle one is tried.
        best = (math.inf,)
        for queue in idle:
            position = queue[-1]
            finish = remote + row[position]
            if power_weight:
                key = (_score(finish, row[position], position), finish, remote, position)
            elif finish > best[0]:
                break
            else:
                key = (finish, remote, position)
            if key < best:
                best = key
        for position in busy_positions:
            duration = row[position]
            ready = remote
            if position in hosts:
                ready = 0
                for at, finish, arrival in incoming:
                    if at == position:
                        arrival = finish
                    if arrival > ready:
                        ready = arrival
            elif not power_weight and remote + duration > best[0]:
                # Finishing no earlier than remote + duration, it cannot win.
                continue
            start = _earliest_slot(busy[position], ready, duration)
            finish = start + duration
            key = (finish, start, position)
            if power_weight:
                key = (_score(finish, duration, position), *key)
            if key < best:
                best = key
        finish, start, position = best[-3:]
        slots = busy[position]
        if not slots:
            # The processor was idle: it leaves its class's queue.
            queue = next(queue for queue in idle if queue[-1] == position)
            queue.pop()
            if not queue:
                idle.remove(queue)
            bisect.insort(busy_positions, position)
        placed[task] = position
        start_times[task] = start
        finish_times[task] = finish
        _insert_slot(slots, (start, finish, task))
    names = [proc.name for proc in processors]
    processor_order = {
        names[position]: [task for _, _, task in busy[position]] for position in busy_positions
    }
    assignment = {task: names[position] for task, position in placed.items()}
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
    # Slots are disjoint, so their finishes are sorted too; a slot that
    # finishes by *ready* leaves the candidate unchanged.
    first = bisect.bisect_right(slots, ready, key=itemgetter(1))
    for slot_start, slot_finish, _ in slots[first:]:
        if candidate + duration <= slot_start:
            return candidate
        if slot_finish > candidate:
            candidate = slot_finish
    return candidate


def _insert_slot(slots: List[Tuple[int, int, Hashable]], slot: Tuple[int, int, Hashable]) -> None:
    """Insert *slot* keeping the list sorted by start time (after equal starts)."""
    bisect.insort_right(slots, slot, key=itemgetter(0))
