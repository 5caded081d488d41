"""Workload generation: the workflows that arrive during a simulation.

Each arrival of the online simulator is a :class:`SimJob`: a realistic
workflow (drawn from the wfcommons-style families of
:mod:`repro.workflow.generators`), already HEFT-mapped onto a replica of the
configured cluster and communication-enhanced — exactly the
preprocessing pipeline of the offline experiments — plus its timing facts
(minimum makespan, relative and absolute deadline).

Job construction is a pure function of ``(workload config, master seed,
job index)``: the same job index always yields the same workflow, mapping
and link processors no matter when or where it is built, which is what makes
simulations in separate processes and resumable event logs reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.mapping.enhanced_dag import EnhancedDAG, build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.presets import CLUSTER_PRESETS, cluster_preset
from repro.schedule.asap import asap_makespan
from repro.utils.errors import SimulationError
from repro.utils.rng import RNGLike, derive_rng
from repro.workflow.generators import WORKFLOW_FAMILIES, generate_workflow

__all__ = ["WorkloadConfig", "SimJob", "build_job"]


@dataclass(frozen=True)
class WorkloadConfig:
    """What kind of workflows arrive, and on what hardware they run.

    Attributes
    ----------
    families:
        Workflow families sampled uniformly per arrival.
    sizes:
        Target workflow sizes sampled uniformly per arrival.
    cluster:
        Cluster preset (a key of
        :data:`~repro.platform_.presets.CLUSTER_PRESETS`) each workflow runs
        on (every committed workflow occupies one replica — a *slot* — for
        its whole makespan).
    deadline_factor:
        Relative deadline as a multiple of the workflow's minimum (ASAP)
        makespan; must be at least 1.
    """

    families: Tuple[str, ...] = ("atacseq", "eager")
    sizes: Tuple[int, ...] = (12,)
    cluster: str = "small"
    deadline_factor: float = 2.0

    def __post_init__(self) -> None:
        if not self.families:
            raise SimulationError("the workload needs at least one workflow family")
        unknown = [f for f in self.families if f not in WORKFLOW_FAMILIES]
        if unknown:
            known = ", ".join(sorted(WORKFLOW_FAMILIES))
            raise SimulationError(f"unknown workflow families {unknown}; known: {known}")
        if not self.sizes or any(int(s) <= 0 for s in self.sizes):
            raise SimulationError("workload sizes must be a non-empty tuple of positive ints")
        if self.deadline_factor < 1.0:
            raise SimulationError(
                f"deadline_factor must be >= 1, got {self.deadline_factor}"
            )
        if self.cluster not in CLUSTER_PRESETS:
            known = ", ".join(CLUSTER_PRESETS)
            raise SimulationError(f"unknown cluster preset {self.cluster!r}; known: {known}")


@dataclass(frozen=True)
class SimJob:
    """One workflow moving through the online system.

    Attributes
    ----------
    index:
        Arrival index (0-based); with the master seed, the job's identity.
    name:
        Stable label (used in events, records and instance names).
    arrival:
        Absolute arrival time.
    family:
        Workflow family the job was drawn from.
    dag:
        The communication-enhanced DAG (fixed HEFT mapping included).
    min_makespan:
        ASAP makespan ``D``, the DAG's critical-path duration (completion
        when starting immediately and running greedily; the shortest
        possible horizon).
    rel_deadline:
        Relative deadline ``ceil(deadline_factor * D)``.
    abs_deadline:
        Absolute deadline (``arrival + rel_deadline``).
    """

    index: int
    name: str
    arrival: int
    family: str
    dag: EnhancedDAG
    min_makespan: int
    rel_deadline: int
    abs_deadline: int

    @property
    def latest_start(self) -> int:
        """Last commit time from which the minimum makespan still meets the deadline."""
        return self.abs_deadline - self.min_makespan

    def describe(self) -> Dict[str, object]:
        """Return a compact, JSON-compatible summary (used in event data)."""
        return {
            "family": self.family,
            "tasks": self.dag.num_nodes,
            "deadline": self.abs_deadline,
        }


#: One cluster per preset name, shared by every job (a cluster has no mutator).
_preset_cluster = functools.lru_cache(maxsize=None)(cluster_preset)


def build_job(
    workload: WorkloadConfig, seed: RNGLike, index: int, arrival: int
) -> SimJob:
    """Materialise arrival number *index* of the workload, deterministically.

    The job's random streams depend only on ``(seed, index)`` — not on the
    arrival time or on how many jobs were built before — so event replay and
    runs in separate processes see identical workflows.
    """
    rng = derive_rng(seed, "job", index)
    family = str(workload.families[int(rng.integers(0, len(workload.families)))])
    size = int(workload.sizes[int(rng.integers(0, len(workload.sizes)))])
    workflow = generate_workflow(family, size, rng=rng)
    cluster = _preset_cluster(workload.cluster)
    heft = heft_mapping(workflow, cluster)
    dag = build_enhanced_dag(heft.mapping, rng=derive_rng(seed, "links", index))
    min_makespan = asap_makespan(dag)
    rel_deadline = max(1, int(math.ceil(workload.deadline_factor * min_makespan)))
    return SimJob(
        index=int(index),
        name=f"wf{index:04d}-{family}",
        arrival=int(arrival),
        family=family,
        dag=dag,
        min_makespan=min_makespan,
        rel_deadline=rel_deadline,
        abs_deadline=int(arrival) + rel_deadline,
    )
