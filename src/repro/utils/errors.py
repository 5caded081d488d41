"""Exception hierarchy of the CaWoSched reproduction library.

All exceptions raised by the library derive from :class:`CaWoSchedError`, so a
caller can guard an entire pipeline with a single ``except CaWoSchedError``.
More specific subclasses are raised close to the source of the problem:
workflow construction, mapping construction, power-profile construction,
schedule validation and exact solvers each have their own class.
"""

from __future__ import annotations

__all__ = [
    "CaWoSchedError",
    "InvalidWorkflowError",
    "CyclicWorkflowError",
    "InvalidMappingError",
    "InvalidProfileError",
    "InvalidScheduleError",
    "InfeasibleScheduleError",
    "SolverError",
    "WireFormatError",
    "SimulationError",
]


class CaWoSchedError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class InvalidWorkflowError(CaWoSchedError):
    """The workflow definition is malformed.

    Raised, for example, when a task weight is not a positive integer, an edge
    references an unknown task, or a requested generator parameter is out of
    range.
    """


class CyclicWorkflowError(InvalidWorkflowError):
    """The task graph contains a cycle and therefore is not a DAG."""


class InvalidMappingError(CaWoSchedError):
    """The mapping (task → processor, per-processor order) is malformed.

    Raised when a task is mapped to an unknown processor, a task is missing
    from the mapping, or the per-processor ordering is inconsistent with the
    mapping.
    """


class InvalidProfileError(CaWoSchedError):
    """The green-power profile is malformed.

    Raised when interval lengths are not positive, budgets are negative, or
    the profile does not cover the requested horizon.
    """


class InvalidScheduleError(CaWoSchedError):
    """A schedule object is structurally malformed.

    Raised when a start time is missing or negative, or refers to an unknown
    task of the communication-enhanced DAG, and when a problem instance's
    power and budget sums are too large for the ``int64`` cost rows.
    """


class InfeasibleScheduleError(InvalidScheduleError):
    """A schedule violates a feasibility constraint.

    Covers precedence violations, per-processor overlaps, order violations and
    deadline misses.  The message states the first violated constraint found.
    """


class SolverError(CaWoSchedError):
    """An exact solver (DP or ILP) failed to produce an optimal solution.

    Raised when the MILP backend reports infeasibility on an instance that is
    known to be feasible (which indicates a modelling bug) or when it fails
    for resource reasons.
    """


class WireFormatError(CaWoSchedError):
    """A serialised payload cannot be decoded.

    Raised when a JSON document does not carry the expected envelope
    (``format`` / ``version`` / ``kind``), declares an unsupported wire
    version, or a payload field is missing or malformed.
    """


class SimulationError(CaWoSchedError):
    """An online-simulation configuration or run is invalid.

    Raised when a simulation configuration names an unknown arrival process,
    forecast model or policy, or when its parameters are out of range
    (non-positive horizon, negative rate, empty family set, ...).
    """
