"""Pluggable execution backends: where jobs actually run.

An :class:`ExecutionBackend` accepts jobs (:meth:`~ExecutionBackend.submit`
returns a ticket), executes everything pending on
:meth:`~ExecutionBackend.gather` (in submission order), and reports
counters through :meth:`~ExecutionBackend.stats`.  Three implementations
cover the execution modes of the client facade and the grid runner:

* :class:`InlineBackend` — runs in the calling process; full
  :class:`~repro.core.scheduler.ScheduleResult` objects (including the
  schedules) are retained.
* :class:`ThreadBackend` — a thread pool; shares the process, so live
  instances are reused and full results are retained.
* :class:`ProcessBackend` — a process pool; only wire-format plain data
  crosses the boundary (a job dictionary out, record dictionaries back).
  Full schedule objects are not shipped back.

Thread- and process-parallelism run over :func:`parallel_map`, a thin,
deterministic wrapper around :mod:`concurrent.futures` that the grid runner
and the simulation sweeps use directly too.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
    runtime_checkable,
)

import repro.api.execute as execute
from repro.api.jobs import Job
from repro.api.registry import AlgorithmRegistry
from repro.core.scheduler import ScheduleResult
from repro.experiments.runner import RunRecord

__all__ = [
    "BackendOutcome",
    "ExecutionBackend",
    "InlineBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "parallel_map",
    "BACKEND_EXECUTORS",
    "EXECUTORS",
]

#: Executor names accepted by :func:`make_backend`.
BACKEND_EXECUTORS = ("inline", "thread", "process")

#: Pool flavours accepted by :func:`parallel_map`.
EXECUTORS = ("process", "thread")

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def parallel_map(
    fn: Callable[[_Item], _Result],
    items: Iterable[_Item],
    *,
    jobs: int = 1,
    executor: str = "process",
) -> List[_Result]:
    """Apply *fn* to every item, optionally over a worker pool.

    Parameters
    ----------
    fn:
        The worker function.  Must be picklable (module-level) for the
        ``"process"`` executor; everything it receives and returns crosses
        the process boundary as pickled plain data.
    items:
        The inputs, consumed eagerly.
    jobs:
        Number of workers.  ``jobs <= 1`` (or fewer than two items) runs
        inline in the calling process without creating a pool.
    executor:
        ``"process"`` for a :class:`~concurrent.futures.ProcessPoolExecutor`
        (true parallelism, pickling overhead) or ``"thread"`` for a
        :class:`~concurrent.futures.ThreadPoolExecutor` (no pickling, shares
        the GIL).

    Returns
    -------
    list
        The results in input order, regardless of completion order.
    """
    if executor not in EXECUTORS:
        known = ", ".join(EXECUTORS)
        raise ValueError(f"unknown executor {executor!r}; known: {known}")
    items = list(items)
    jobs = int(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool_cls = ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
    with pool_cls(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class BackendOutcome:
    """What a backend produced for one job: flat records, plus full results
    when the backend ran in-process."""

    records: Tuple[RunRecord, ...]
    results: Optional[Tuple[ScheduleResult, ...]] = None


@runtime_checkable
class ExecutionBackend(Protocol):
    """The execution backend protocol: ``submit`` / ``gather`` / ``stats``."""

    name: str
    #: Whether gathered outcomes carry full :class:`ScheduleResult` objects.
    returns_results: bool

    def submit(self, job: Job) -> int:
        """Enqueue *job* and return its ticket (submission index)."""
        ...  # pragma: no cover - protocol

    def gather(self) -> List[BackendOutcome]:
        """Execute everything pending, in submission order, and clear the queue."""
        ...  # pragma: no cover - protocol

    def stats(self) -> Dict[str, object]:
        """Return backend counters (name, workers, submitted, completed)."""
        ...  # pragma: no cover - protocol


class _QueueBackend:
    """Shared submit/gather/stats bookkeeping of the concrete backends."""

    name = "queue"
    returns_results = False
    workers = 1
    _registry: Optional[AlgorithmRegistry] = None

    def __init__(self) -> None:
        self._pending: List[Job] = []
        self._submitted = 0
        self._completed = 0

    def bind_registry(self, registry: AlgorithmRegistry) -> None:
        """Adopt *registry* for in-process dispatch when none was set.

        Lets a :class:`~repro.api.client.Client` hand its registry to a
        backend it was given, so custom algorithms validated by the client
        also execute.  A no-op for process pools (their workers dispatch
        through their own process's default registry) and for backends
        constructed with an explicit registry.
        """
        if self.returns_results and self._registry is None:
            self._registry = registry

    def submit(self, job: Job) -> int:
        ticket = self._submitted
        self._pending.append(job)
        self._submitted += 1
        return ticket

    def gather(self) -> List[BackendOutcome]:
        jobs, self._pending = self._pending, []
        outcomes = self._run(jobs)
        self._completed += len(outcomes)
        return outcomes

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "workers": self.workers,
            "submitted": self._submitted,
            "completed": self._completed,
            "pending": len(self._pending),
        }

    def _run(self, jobs: List[Job]) -> List[BackendOutcome]:  # pragma: no cover
        raise NotImplementedError


class InlineBackend(_QueueBackend):
    """Execute jobs sequentially in the calling process.

    No serialisation boundary is crossed: live instances are reused and
    full schedule results are retained alongside the flat records.
    """

    name = "inline"
    returns_results = True

    def __init__(self, *, registry: Optional[AlgorithmRegistry] = None) -> None:
        super().__init__()
        self._registry = registry

    def _run(self, jobs: List[Job]) -> List[BackendOutcome]:
        outcomes = []
        for job in jobs:
            results, records = execute.execute_job(job, registry=self._registry)
            outcomes.append(BackendOutcome(records=records, results=results))
        return outcomes


class ThreadBackend(_QueueBackend):
    """Execute jobs over a thread pool.

    Threads share the process, so jobs are handed over as-is (live
    instances reused, no pickling) and full results are retained.  True
    parallelism is GIL-bound; the thread pool mainly helps workloads that
    release the GIL or interleave I/O.
    """

    name = "thread"
    returns_results = True

    def __init__(
        self, jobs: int = 2, *, registry: Optional[AlgorithmRegistry] = None
    ) -> None:
        super().__init__()
        self.workers = int(jobs)
        self._registry = registry

    def _run(self, jobs: List[Job]) -> List[BackendOutcome]:
        def run_one(job: Job) -> BackendOutcome:
            results, records = execute.execute_job(job, registry=self._registry)
            return BackendOutcome(records=records, results=results)

        return parallel_map(run_one, jobs, jobs=self.workers, executor="thread")


class ProcessBackend(_QueueBackend):
    """Execute jobs over a process pool.

    Only wire-format plain data crosses the boundary: a job dictionary
    goes out (spec jobs materialise inside the worker), a list of record
    dictionaries comes back.  The wire round trip is exact, so records are
    identical to in-process execution.  Workers dispatch through their own
    process's default registry, so third-party algorithms must be
    registered at import time to be visible here.
    """

    name = "process"
    returns_results = False

    def __init__(self, jobs: int = 2) -> None:
        super().__init__()
        self.workers = int(jobs)

    def _run(self, jobs: List[Job]) -> List[BackendOutcome]:
        payloads = [job.to_dict() for job in jobs]
        raw = parallel_map(
            execute.execute_job_payload, payloads, jobs=self.workers, executor="process"
        )
        return [
            BackendOutcome(
                records=tuple(RunRecord.from_dict(entry) for entry in row)
            )
            for row in raw
        ]


def make_backend(
    executor: str = "inline",
    jobs: int = 1,
    *,
    registry: Optional[AlgorithmRegistry] = None,
) -> ExecutionBackend:
    """Build a backend from an executor name and a worker count.

    ``jobs <= 1`` always yields an :class:`InlineBackend` (a pool of one
    would only add overhead); otherwise ``executor`` picks the pool
    flavour.

    Raises
    ------
    ValueError
        If the executor name is unknown.
    """
    if executor not in BACKEND_EXECUTORS:
        known = ", ".join(BACKEND_EXECUTORS)
        raise ValueError(f"unknown executor {executor!r}; known: {known}")
    jobs = int(jobs)
    if jobs <= 1 or executor == "inline":
        return InlineBackend(registry=registry)
    if executor == "thread":
        return ThreadBackend(jobs, registry=registry)
    return ProcessBackend(jobs)
