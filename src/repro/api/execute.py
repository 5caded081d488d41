"""Job execution: the one place where a job turns into schedules.

:func:`execute_job` materialises a :class:`~repro.api.jobs.Job`'s instance,
rebuilds the scheduler from the job's configuration, runs every variant
through :meth:`CaWoSched.run <repro.core.scheduler.CaWoSched.run>`, the
``-LS`` variants through one ``CaWoSched._refine`` call, and derives the flat
:class:`~repro.experiments.runner.RunRecord` rows — one per variant, in job
order.  An ``-LS`` variant refines its greedy parent's schedule when the
parent is in the same job.

:func:`execute_job_payload` is the worker function of the process pool: it
receives a job as plain wire data and returns record dictionaries, so only
JSON-shaped data crosses the process boundary.  :func:`parallel_map` is
that pool, a thin, order-preserving wrapper around
:class:`~concurrent.futures.ProcessPoolExecutor` that the client and the
grid runner share.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Mapping, Tuple, TypeVar

from repro.api.jobs import Job
from repro.core.scheduler import CaWoSched, ScheduleResult
from repro.core.variants import get_variant
from repro.io.records import RunRecord
from repro.schedule.instance import ProblemInstance

__all__ = [
    "record_labels",
    "record_for",
    "execute_job",
    "execute_job_payload",
    "parallel_map",
]

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def record_labels(name: str, metadata: Mapping[str, object]) -> Dict[str, object]:
    """Return the instance labels a :class:`RunRecord` denormalises.

    *name* and *metadata* are an instance's ``name`` and ``metadata``; the
    result holds the record fields ``instance``, ``family``, ``cluster``,
    ``scenario`` and ``deadline_factor``.
    """
    return {
        "instance": str(name),
        "family": str(metadata.get("family", metadata.get("workflow", ""))),
        "cluster": str(metadata.get("cluster", "")),
        "scenario": str(metadata.get("scenario", "")),
        "deadline_factor": float(metadata.get("deadline_factor", 0.0)),
    }


def record_for(instance: ProblemInstance, result: ScheduleResult) -> RunRecord:
    """Flatten one :class:`ScheduleResult` into a :class:`RunRecord`.

    The instance labels (see :func:`record_labels`) are denormalised into
    the record so downstream grouping never needs the instance again.
    """
    return RunRecord(
        variant=result.variant,
        carbon_cost=result.carbon_cost,
        runtime_seconds=result.runtime_seconds,
        makespan=result.makespan,
        deadline=instance.deadline,
        num_tasks=instance.num_tasks,
        **record_labels(instance.name, instance.metadata),
    )


def execute_job(job: Job) -> Tuple[Tuple[ScheduleResult, ...], Tuple[RunRecord, ...]]:
    """Run every variant of *job* and return (full results, flat records).

    ASAP and the greedy variants run first, in job order, through
    :meth:`CaWoSched.run`; then every ``-LS`` variant runs its local search,
    refining its greedy parent's schedule when the parent is in the job.
    Results come back in job order and are byte-identical to calling the
    scheduler directly.  An ``-LS`` result's ``runtime_seconds`` is its
    parent's plus its own local search and validation.
    """
    instance = job.instance()
    scheduler = CaWoSched.from_config(job.scheduler)
    done: Dict[str, ScheduleResult] = {}
    refined = []
    for name in job.variants:
        if get_variant(name).local_search:
            refined.append(name)
        else:
            done[name] = scheduler.run(instance, name)
    if refined:
        done.update(zip(refined, scheduler._refine(instance, refined, done)))
    results = [done[name] for name in job.variants]
    return tuple(results), tuple(record_for(instance, result) for result in results)


def execute_job_payload(job_data: Mapping[str, object]) -> List[Dict[str, object]]:
    """Run one job shipped as plain data and return its records as dicts.

    Module-level so the process pool can pickle it; input and output are
    wire-format plain data only.
    """
    _, records = execute_job(Job.from_dict(job_data))
    return [record.to_dict() for record in records]


def parallel_map(
    fn: Callable[[_Item], _Result], items: Iterable[_Item], *, jobs: int
) -> List[_Result]:
    """Apply *fn* to every item, over a process pool when *jobs* > 1.

    *fn* must be picklable (module-level); everything it receives and
    returns crosses the process boundary as pickled plain data.  ``jobs <=
    1`` (or fewer than two items) runs inline in the calling process
    without creating a pool.  Results come back in input order, regardless
    of completion order.
    """
    items = list(items)
    if int(jobs) <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(int(jobs), len(items))) as pool:
        return list(pool.map(fn, items))
