"""The client facade: the single way work enters the system.

:class:`Client` accepts typed jobs (:class:`~repro.api.jobs.Job`),
deduplicates them on the canonical fingerprint, serves repeats from one
bounded LRU result cache, and executes every unique uncached job through
:func:`~repro.api.execute.execute_job` — in the calling process by default,
or over a process pool with ``Client(jobs=N)``.  Both submission shapes
share that one cache:

* :meth:`Client.submit` / :meth:`Client.submit_many` — batch-style: one
  :class:`~repro.api.jobs.JobResult` per job, in request order, flagged
  ``cached`` where no scheduling work was done;
* :meth:`Client.solve` — single-variant, full-result: returns the complete
  :class:`~repro.core.scheduler.ScheduleResult` including the schedule
  (what callers that *execute* schedules, like the online simulator,
  need).

A single-variant job therefore dedupes across paths: ``solve`` followed by
a batch submission of the same job (or vice versa) computes once.

Errors surface through the structured taxonomy of
:mod:`repro.api.errors`: malformed jobs raise
:class:`~repro.api.errors.InvalidJob`, names that are not one of the
paper's variants raise :class:`~repro.api.errors.UnknownVariant` *before*
any work is dispatched, and failures during execution are wrapped in
:class:`~repro.api.errors.BackendFailure` with the cause chained.

Examples
--------
>>> client = Client()
>>> job = Job.from_instance(instance, variants=["ASAP", "pressWR-LS"])  # doctest: +SKIP
>>> client.submit(job).records[0].carbon_cost                           # doctest: +SKIP
>>> client.submit(job).cached                                           # doctest: +SKIP
True
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import repro.api.execute as execute
from repro.api.cache import ResultCache
from repro.api.errors import ApiError, BackendFailure
from repro.api.jobs import Job, JobResult
from repro.core.scheduler import CaWoSched, ScheduleResult
from repro.experiments.runner import RunRecord
from repro.schedule.instance import ProblemInstance

__all__ = ["Client"]


class Client:
    """Typed submission facade with caching, dedupe and optional pooling.

    Parameters
    ----------
    jobs:
        Number of worker processes fresh jobs run on.  ``1`` (the default)
        runs them in the calling process, reusing live instances and
        keeping the full :class:`~repro.core.scheduler.ScheduleResult`
        objects.  ``N > 1`` ships each job as wire data to a pool of *N*
        processes and keeps flat records only.
    cache_size:
        Bound of the LRU result cache (entries, keyed by job fingerprint).
        Entries computed in-process retain the full per-variant
        :class:`~repro.core.scheduler.ScheduleResult` objects (schedules
        and their instances) so the ``solve`` path can share them — for
        large instances, size the bound accordingly.
    """

    def __init__(self, *, jobs: int = 1, cache_size: int = 128) -> None:
        self._jobs = int(jobs)
        self._backend = "inline" if self._jobs <= 1 else "process"
        self._cache: ResultCache[JobResult] = ResultCache(cache_size)
        self._submitted = 0
        self._computed = 0
        self._solved = 0
        self._solve_hits = 0

    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> ResultCache:
        """The unified result cache shared by every submission path."""
        return self._cache

    @property
    def computed(self) -> int:
        """Number of unique batch jobs actually scheduled (cache misses)."""
        return self._computed

    @property
    def solved(self) -> int:
        """Number of :meth:`solve` calls actually computed (cache misses)."""
        return self._solved

    def stats(self) -> Dict[str, object]:
        """Return client statistics (counters, cache state, backend name)."""
        return {
            "submitted": self._submitted,
            "computed": self._computed,
            "solved": self._solved,
            "solve_hits": self._solve_hits,
            **self._cache.stats(),
            "backend": self._backend,
        }

    # ------------------------------------------------------------------ #
    @staticmethod
    def _relabelled(result: JobResult, job: Job) -> JobResult:
        """Re-stamp cached records with the requesting job's instance labels.

        The fingerprint deliberately ignores instance ``name``/``metadata``,
        so a cache entry may have been computed for a differently-labelled
        twin of *job*'s instance.  The schedule content is identical, but
        records denormalise the labels — restore the requester's, exactly
        as a fresh run of this job would have produced them.  Spec jobs
        take them from the instance their fingerprint materialised.
        """
        if not result.records:
            return result
        if job.payload is not None:
            labels = execute.record_labels(
                job.payload.get("name", "instance"), job.payload.get("metadata", {})
            )
        else:
            instance = job.instance()
            labels = execute.record_labels(instance.name, instance.metadata)
        if all(
            getattr(record, field) == value
            for record in result.records
            for field, value in labels.items()
        ):
            return result
        records = tuple(
            dataclasses.replace(record, **labels) for record in result.records
        )
        return dataclasses.replace(result, records=records)

    def _execute_fresh(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Run *jobs* inline or over the pool, wrapping failures uniformly."""
        try:
            if self._jobs <= 1:
                outcomes = [execute.execute_job(job) for job in jobs]
            else:
                rows = execute.parallel_map(
                    execute.execute_job_payload,
                    [job.to_dict() for job in jobs],
                    jobs=self._jobs,
                )
                outcomes = [
                    (None, tuple(RunRecord.from_dict(entry) for entry in row))
                    for row in rows
                ]
        except ApiError:
            raise
        except Exception as exc:
            raise BackendFailure(f"backend {self._backend!r} failed: {exc}") from exc
        return [
            JobResult(
                fingerprint=job.fingerprint,
                variants=job.variants,
                records=records,
                cached=False,
                backend=self._backend,
                results=results,
            )
            for job, (results, records) in zip(jobs, outcomes)
        ]

    def submit(self, job: Job) -> JobResult:
        """Serve a single job (equivalent to a one-element batch)."""
        return self.submit_many([job])[0]

    def submit_many(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Serve a batch of jobs.

        Duplicate jobs (same fingerprint) are scheduled once: the first
        occurrence computes (or reuses an earlier submission's cache
        entry), every other occurrence is answered from the cache.
        Results come back in request order.
        """
        jobs = list(jobs)
        for job in jobs:
            job.validate()
        self._submitted += len(jobs)
        fingerprints = [job.fingerprint for job in jobs]

        # Which fingerprints need fresh work, keyed by first occurrence.
        fresh: Dict[str, Job] = {}
        for fingerprint, job in zip(fingerprints, jobs):
            if fingerprint not in fresh and fingerprint not in self._cache:
                fresh[fingerprint] = job

        computed: Dict[str, JobResult] = {}
        if fresh:
            for result in self._execute_fresh(list(fresh.values())):
                computed[result.fingerprint] = result
                self._cache.put(result.fingerprint, result)
            self._computed += len(fresh)

        responses: List[JobResult] = []
        for fingerprint, job in zip(fingerprints, jobs):
            if fingerprint in computed:
                # First occurrence of a fresh job: answered from this
                # batch's computation, not from the cache.
                responses.append(computed.pop(fingerprint))
                continue
            entry = self._cache.get(fingerprint)
            if entry is None:
                # The batch contained more unique jobs than the cache can
                # hold and this entry was already evicted; recompute.
                entry = self._execute_fresh([job])[0]
                self._cache.put(fingerprint, entry)
                self._computed += 1
                responses.append(entry)
                continue
            responses.append(self._relabelled(entry.as_cached(), job))
        return responses

    # ------------------------------------------------------------------ #
    def solve(
        self,
        instance: ProblemInstance,
        variant: str,
        *,
        scheduler: Optional[CaWoSched] = None,
    ) -> ScheduleResult:
        """Schedule one variant on one instance, returning the full result.

        Runs through the same cache as the batch path (a single-variant
        job submitted either way computes once), but always executes
        in-process so the returned :class:`ScheduleResult` includes the
        schedule.  On a cache hit it is the result computed for the first
        job with the same fingerprint, whose schedule references that
        job's instance — possibly a differently-labelled twin of
        *instance*, since the fingerprint ignores ``name`` and
        ``metadata``.  A cached entry that carries flat records only
        (computed by the process pool) is upgraded in place.
        """
        scheduler = scheduler or CaWoSched()
        job = Job.from_instance(instance, variants=(variant,), scheduler=scheduler)
        job.validate()
        fingerprint = job.fingerprint
        entry = self._cache.get(fingerprint)
        if entry is not None and entry.results is not None:
            self._solve_hits += 1
            return entry.results[0]
        try:
            results, records = execute.execute_job(job)
        except ApiError:
            raise
        except Exception as exc:
            raise BackendFailure(f"backend 'inline' failed: {exc}") from exc
        self._cache.put(
            fingerprint,
            JobResult(
                fingerprint=fingerprint,
                variants=job.variants,
                records=records,
                cached=False,
                backend="inline",
                results=results,
            ),
        )
        self._solved += 1
        return results[0]
