"""Argument-checking helpers shared by the public API.

These helpers raise :class:`ValueError` / :class:`TypeError` with consistent,
informative messages.  They are intentionally tiny — the goal is uniform error
text across the library, not a validation framework.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Optional

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_probability",
    "check_in_range",
]

#: Largest power, budget or time the int64 rows of the schedule evaluators hold.
INT64_MAX = 2**63 - 1


def check_positive_int(value, name: str) -> int:
    """Return *value* as ``int`` after checking it is a positive integer."""
    if type(value) is int and value > 0:
        return value
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative_int(value, name: str) -> int:
    """Return *value* as ``int`` after checking it is a non-negative integer."""
    if type(value) is int and value >= 0:
        return value
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_probability(value, name: str) -> float:
    """Return *value* as ``float`` after checking it lies in ``[0, 1]``."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def check_in_range(
    value,
    name: str,
    *,
    low: Optional[float] = None,
    high: Optional[float] = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Return *value* as ``float`` after checking it lies in the given range."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must be a number, got {value}")
    if low is not None:
        if low_inclusive and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if not low_inclusive and value <= low:
            raise ValueError(f"{name} must be > {low}, got {value}")
    if high is not None:
        if high_inclusive and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value}")
        if not high_inclusive and value >= high:
            raise ValueError(f"{name} must be < {high}, got {value}")
    return value
