"""Structured error taxonomy of the :mod:`repro.api` facade.

Every failure mode of the client facade maps to one of three exception
classes, each carrying a stable machine-readable ``code`` and a dedicated
CLI ``exit_code``:

===================  ==================  =========
exception            code                exit code
===================  ==================  =========
:class:`InvalidJob`      ``invalid-job``      2
:class:`UnknownVariant`  ``unknown-variant``  3
:class:`BackendFailure`  ``backend-failure``  4
===================  ==================  =========

:class:`UnknownVariant` names a variant outside the paper's variant table
(:data:`~repro.core.variants.ALL_VARIANTS`); :class:`BackendFailure` wraps
any failure while a job runs, whether in-process or in a worker of
``Client(jobs=N)``.  All three derive from :class:`ApiError` (itself a
:class:`~repro.utils.errors.CaWoSchedError`), so existing ``except
CaWoSchedError`` guards keep working.
"""

from __future__ import annotations

from repro.utils.errors import CaWoSchedError

__all__ = [
    "ApiError",
    "InvalidJob",
    "UnknownVariant",
    "BackendFailure",
]


class ApiError(CaWoSchedError):
    """Base class of every error raised by the :mod:`repro.api` facade."""

    #: Stable machine-readable error code (the CLI prints it on stderr).
    code = "api-error"
    #: Process exit code the CLI returns for this error class.
    exit_code = 1


class InvalidJob(ApiError):
    """A job is malformed.

    Raised when a job names neither an instance payload nor a spec, has an
    empty variant list, or carries a scheduler configuration that cannot be
    parsed.
    """

    code = "invalid-job"
    exit_code = 2


class UnknownVariant(ApiError):
    """A job names an algorithm variant that is not one of the paper's seventeen.

    The known names are those of :data:`~repro.core.variants.ALL_VARIANTS`
    (see :func:`repro.api.jobs.check_variant`).
    """

    code = "unknown-variant"
    exit_code = 3


class BackendFailure(ApiError):
    """A job failed while it ran, in-process (``"inline"``) or in a worker
    process (``"process"``).

    Wraps the underlying cause (malformed instance payload discovered at
    execution time, a worker crash, an infeasible schedule, ...); the
    message reads ``backend '<name>' failed: ...`` and the original
    exception is chained as ``__cause__``.
    """

    code = "backend-failure"
    exit_code = 4

