"""repro.api — the typed client facade of the scheduling system.

One stable, versioned surface through which *all* work enters the system:

* :class:`~repro.api.jobs.Job` / :class:`~repro.api.jobs.JobResult` — the
  typed unit of work (instance-or-spec + variants + scheduler config) with
  the canonical content fingerprint every path shares;
  :meth:`Job.validate <repro.api.jobs.Job.validate>` checks its variant
  names against the paper's variant table
  (:data:`~repro.core.variants.ALL_VARIANTS`);
* :func:`~repro.api.execute.execute_job` — the one execution path: every
  job's variants run through :meth:`CaWoSched.run
  <repro.core.scheduler.CaWoSched.run>`, in-process or, via
  :func:`~repro.api.execute.parallel_map`, in a worker process;
* :class:`~repro.api.client.Client` — caching, deduplicating submission;
  ``Client(jobs=N)`` fans fresh jobs out over *N* worker processes;
* the structured error taxonomy of :mod:`repro.api.errors`.

The grid runner (``run_grid``), the online simulator and every CLI
subcommand submit their work through this package.
"""

from repro.utils.lazy import _lazy_exports

__all__ = [
    # errors
    "ApiError",
    "BackendFailure",
    "InvalidJob",
    "UnknownVariant",
    # cache
    "ResultCache",
    # jobs
    "Job",
    "JobResult",
    "job_fingerprint",
    # execution
    "execute_job",
    "parallel_map",
    "record_for",
    # client
    "Client",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.api.errors": (
            "ApiError",
            "BackendFailure",
            "InvalidJob",
            "UnknownVariant",
        ),
        "repro.api.cache": ("ResultCache",),
        "repro.api.jobs": (
            "Job",
            "JobResult",
            "job_fingerprint",
        ),
        "repro.api.execute": (
            "execute_job",
            "parallel_map",
            "record_for",
        ),
        "repro.api.client": ("Client",),
    },
)
