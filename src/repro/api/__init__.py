"""repro.api — the typed client facade of the scheduling system.

One stable, versioned surface through which *all* work enters the system:

* :class:`~repro.api.jobs.Job` / :class:`~repro.api.jobs.JobResult` — the
  typed unit of work (instance-or-spec + variants + scheduler config +
  priority/tags) with the canonical content fingerprint every path shares;
* :class:`~repro.api.registry.AlgorithmRegistry` — named algorithm
  variants with capability metadata and third-party registration;
* :class:`~repro.api.backends.ExecutionBackend` — pluggable execution
  (:class:`~repro.api.backends.InlineBackend`,
  :class:`~repro.api.backends.ThreadBackend`,
  :class:`~repro.api.backends.ProcessBackend`);
* :class:`~repro.api.client.Client` — caching, deduplicating submission
  over a backend;
* the structured error taxonomy of :mod:`repro.api.errors`.

The grid runner (``run_grid``), the online simulator and every CLI
subcommand submit their work through this package.
"""

from repro.api.errors import (
    ApiError,
    BackendFailure,
    InvalidJob,
    UnknownVariant,
    error_payload,
)
from repro.api.cache import ResultCache
from repro.api.registry import (
    DEFAULT_REGISTRY,
    AlgorithmCapabilities,
    AlgorithmRegistry,
    RegisteredAlgorithm,
)
from repro.api.jobs import Job, JobResult, job_fingerprint
from repro.api.execute import execute_job, record_for
from repro.api.backends import (
    BACKEND_EXECUTORS,
    EXECUTORS,
    BackendOutcome,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    make_backend,
    parallel_map,
)
from repro.api.client import Client

__all__ = [
    # errors
    "ApiError",
    "BackendFailure",
    "InvalidJob",
    "UnknownVariant",
    "error_payload",
    # pool / cache
    "EXECUTORS",
    "parallel_map",
    "ResultCache",
    # registry
    "DEFAULT_REGISTRY",
    "AlgorithmCapabilities",
    "AlgorithmRegistry",
    "RegisteredAlgorithm",
    # jobs
    "Job",
    "JobResult",
    "job_fingerprint",
    # execution
    "execute_job",
    "record_for",
    "BACKEND_EXECUTORS",
    "BackendOutcome",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "ThreadBackend",
    "make_backend",
    # client
    "Client",
]
