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
CaWoSchedError`` guards keep working.  :func:`error_payload` renders any
exception into the plain-data body of a wire-format ``"error"`` document
(see :mod:`repro.io.wire`), which is how services and the CLI surface
failures uniformly.
"""

from __future__ import annotations

from typing import Dict

from repro.utils.errors import CaWoSchedError

__all__ = [
    "ApiError",
    "InvalidJob",
    "UnknownVariant",
    "BackendFailure",
    "error_payload",
]


class ApiError(CaWoSchedError):
    """Base class of every error raised by the :mod:`repro.api` facade."""

    #: Stable machine-readable error code (the wire ``"error"`` payload).
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


def error_payload(exc: BaseException) -> Dict[str, object]:
    """Render an exception as the plain-data payload of a wire ``"error"``.

    :class:`ApiError` subclasses contribute their stable code and exit code;
    any other exception is reported under the generic ``api-error`` code.
    """
    code = getattr(exc, "code", ApiError.code)
    exit_code = getattr(exc, "exit_code", ApiError.exit_code)
    return {
        "code": str(code),
        "message": str(exc),
        "exit_code": int(exit_code),
        "type": type(exc).__name__,
    }
