"""In-process job execution shared by every backend.

:func:`execute_job` is the single place where a :class:`~repro.api.jobs.Job`
turns into schedules: it materialises the instance, rebuilds the scheduler
from the job's configuration, dispatches every variant through an
:class:`~repro.api.registry.AlgorithmRegistry`, and derives the flat
:class:`~repro.experiments.runner.RunRecord` rows — one per variant, in job
order.

:func:`execute_job_payload` is the module-level worker function of the
process backend: it receives a job as plain wire data and returns record
dictionaries, so only JSON-shaped data crosses the process boundary.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.api.jobs import Job
from repro.api.registry import DEFAULT_REGISTRY, AlgorithmRegistry
from repro.core.scheduler import CaWoSched, ScheduleResult
from repro.experiments.runner import RunRecord
from repro.schedule.instance import ProblemInstance

__all__ = ["record_for", "execute_job", "execute_job_payload"]


def record_for(instance: ProblemInstance, result: ScheduleResult) -> RunRecord:
    """Flatten one :class:`ScheduleResult` into a :class:`RunRecord`.

    The instance metadata (family, cluster, scenario, deadline factor) is
    denormalised into the record so downstream grouping never needs the
    instance again.
    """
    meta = instance.metadata
    return RunRecord(
        instance=instance.name,
        variant=result.variant,
        carbon_cost=result.carbon_cost,
        runtime_seconds=result.runtime_seconds,
        makespan=result.makespan,
        deadline=instance.deadline,
        num_tasks=instance.num_tasks,
        family=str(meta.get("family", meta.get("workflow", ""))),
        cluster=str(meta.get("cluster", "")),
        scenario=str(meta.get("scenario", "")),
        deadline_factor=float(meta.get("deadline_factor", 0.0)),
    )


def execute_job(
    job: Job, *, registry: Optional[AlgorithmRegistry] = None
) -> Tuple[Tuple[ScheduleResult, ...], Tuple[RunRecord, ...]]:
    """Run every variant of *job* and return (full results, flat records).

    Variants run in job order through the registry; built-in variants go
    through :class:`~repro.core.scheduler.CaWoSched` unchanged.
    """
    registry = registry or DEFAULT_REGISTRY
    instance = job.instance()
    scheduler = CaWoSched.from_config(job.scheduler)
    results: List[ScheduleResult] = []
    records: List[RunRecord] = []
    for name in job.variants:
        result = registry.run(instance, name, scheduler=scheduler)
        results.append(result)
        records.append(record_for(instance, result))
    return tuple(results), tuple(records)


def execute_job_payload(job_data: Mapping[str, object]) -> List[Dict[str, object]]:
    """Run one job shipped as plain data and return its records as dicts.

    Module-level so the process pool can pickle it; input and output are
    wire-format plain data only.  Workers dispatch through their own
    process's :data:`DEFAULT_REGISTRY`.
    """
    job = Job.from_dict(job_data)
    _, records = execute_job(job)
    return [record.to_dict() for record in records]
