"""Shared utilities for the CaWoSched reproduction.

This subpackage bundles small helpers that are used across all other
subpackages:

* :mod:`repro.utils.errors` — the exception hierarchy raised by the library.
* :mod:`repro.utils.rng` — seeded random-number-generator helpers so that
  every stochastic component (workflow generators, power-profile scenarios,
  instance grids) is reproducible.
* :mod:`repro.utils.ordering` — the deterministic topological order (and
  acyclicity check) on plain ``node -> successors`` mappings.
* :mod:`repro.utils.names` — JSON encoding of hashable node names (used by
  the wire format in :mod:`repro.io`).
* :mod:`repro.utils.validation` — argument-checking helpers shared by the
  public API.
"""

from repro.utils.errors import (
    CaWoSchedError,
    CyclicWorkflowError,
    InfeasibleScheduleError,
    InvalidMappingError,
    InvalidProfileError,
    InvalidScheduleError,
    InvalidWorkflowError,
    SolverError,
    WireFormatError,
)
from repro.utils.names import decode_name, encode_name
from repro.utils.rng import derive_rng, ensure_rng, spawn_seeds
from repro.utils.ordering import topological_order
from repro.utils.validation import (
    check_positive_int,
    check_non_negative_int,
    check_probability,
    check_in_range,
)

__all__ = [
    "CaWoSchedError",
    "CyclicWorkflowError",
    "InfeasibleScheduleError",
    "InvalidMappingError",
    "InvalidProfileError",
    "InvalidScheduleError",
    "InvalidWorkflowError",
    "SolverError",
    "WireFormatError",
    "decode_name",
    "encode_name",
    "derive_rng",
    "ensure_rng",
    "spawn_seeds",
    "topological_order",
    "check_positive_int",
    "check_non_negative_int",
    "check_probability",
    "check_in_range",
]
