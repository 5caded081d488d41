"""Green-power profiles: the horizon, its intervals and their budgets.

The paper divides the horizon ``[0, T)`` into ``J`` intervals ``I_j = [b_j,
e_j)`` of lengths ``ℓ_j``; within interval ``I_j`` a constant *green power
budget* ``G_j`` is available per time unit.  Power drawn above the budget is
brown power and counts as carbon cost.  :class:`PowerProfile` is the immutable
description of this staircase function; schedulers additionally keep mutable
"remaining budget" views derived from it (see
:mod:`repro.core.greedy`).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.utils.errors import InvalidProfileError
from repro.utils.validation import INT64_MAX, check_non_negative_int, check_positive_int

__all__ = ["Interval", "PowerProfile"]


class Interval:
    """One interval ``[begin, end)`` with a constant green power budget."""

    __slots__ = ("begin", "end", "budget")

    def __init__(self, begin: int, end: int, budget: int) -> None:
        self.begin = int(begin)
        self.end = int(end)
        self.budget = int(budget)
        if self.end <= self.begin:
            raise InvalidProfileError(
                f"interval [{begin}, {end}) must have positive length"
            )
        if self.budget < 0:
            raise InvalidProfileError(f"budget must be non-negative, got {budget}")
        if max(self.end, self.budget) > INT64_MAX:
            raise InvalidProfileError(f"interval end and budget must be at most {INT64_MAX}")

    @property
    def length(self) -> int:
        """Interval length ``ℓ_j = e_j - b_j``."""
        return self.end - self.begin

    def to_dict(self) -> Dict[str, int]:
        """Return a JSON-serialisable representation of the interval."""
        return {"begin": self.begin, "end": self.end, "budget": self.budget}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "Interval":
        """Rebuild an interval from :meth:`to_dict` output."""
        return cls(int(data["begin"]), int(data["end"]), int(data["budget"]))

    def __iter__(self):
        yield self.begin
        yield self.end
        yield self.budget

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval)
            and (self.begin, self.end, self.budget) == (other.begin, other.end, other.budget)
        )

    def __hash__(self) -> int:
        return hash((self.begin, self.end, self.budget))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval([{self.begin}, {self.end}), budget={self.budget})"


class PowerProfile:
    """The green power budget over the horizon ``[0, T)``.

    Parameters
    ----------
    lengths:
        The interval lengths ``ℓ_1 .. ℓ_J`` (positive integers).
    budgets:
        The per-time-unit budgets ``G_1 .. G_J`` (non-negative integers); must
        have the same length as *lengths*.

    Examples
    --------
    >>> profile = PowerProfile([5, 5], [10, 2])
    >>> profile.horizon
    10
    >>> profile.budget_at(7)
    2
    """

    def __init__(self, lengths: Sequence[int], budgets: Sequence[int]) -> None:
        if len(lengths) == 0:
            raise InvalidProfileError("a power profile needs at least one interval")
        if len(lengths) != len(budgets):
            raise InvalidProfileError(
                f"got {len(lengths)} lengths but {len(budgets)} budgets"
            )
        self._intervals: List[Interval] = []
        begin = 0
        for length, budget in zip(lengths, budgets):
            try:
                length = check_positive_int(length, "interval length")
                budget = check_non_negative_int(budget, "budget")
            except (TypeError, ValueError) as exc:
                raise InvalidProfileError(str(exc)) from exc
            self._intervals.append(Interval(begin, begin + length, budget))
            begin += length
        self._boundaries = [iv.begin for iv in self._intervals] + [begin]

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, horizon: int, budget: int) -> "PowerProfile":
        """Build a single-interval profile with a constant budget."""
        return cls([int(horizon)], [int(budget)])

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, List[int]]:
        """Return a JSON-serialisable representation of the profile."""
        return {
            "lengths": [iv.length for iv in self._intervals],
            "budgets": [iv.budget for iv in self._intervals],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Sequence[int]]) -> "PowerProfile":
        """Rebuild a profile from :meth:`to_dict` output.

        Every length and budget must be an integer as given: a value such as
        2.5, ``true`` or ``"3"`` raises ``TypeError``, which the wire loader
        reports as a malformed payload.
        """
        for key in ("lengths", "budgets"):
            for value in data[key]:
                check_non_negative_int(value, f"profile {key}")
        return cls(data["lengths"], data["budgets"])

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def horizon(self) -> int:
        """The deadline ``T`` (total length of the profile)."""
        return self._boundaries[-1]

    @property
    def num_intervals(self) -> int:
        """The number of intervals ``J``."""
        return len(self._intervals)

    def intervals(self) -> List[Interval]:
        """Return the intervals in chronological order."""
        return list(self._intervals)

    def boundaries(self) -> List[int]:
        """Return the set ``E`` of interval boundaries ``{0, e_1, ..., e_J = T}``."""
        return list(self._boundaries)

    def interval(self, index: int) -> Interval:
        """Return interval ``I_{index+1}`` (0-based index)."""
        return self._intervals[index]

    def interval_index_at(self, time: int) -> int:
        """Return the 0-based index of the interval containing time unit *time*."""
        if not 0 <= time < self.horizon:
            raise InvalidProfileError(
                f"time {time} is outside the horizon [0, {self.horizon})"
            )
        return bisect.bisect_right(self._boundaries, time) - 1

    def budget_at(self, time: int) -> int:
        """Return the green budget available during time unit *time*."""
        return self._intervals[self.interval_index_at(time)].budget

    def budgets_per_time_unit(self) -> np.ndarray:
        """Return the budget of every time unit as an integer array of length T."""
        result = np.empty(self.horizon, dtype=np.int64)
        for iv in self._intervals:
            result[iv.begin : iv.end] = iv.budget
        return result

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerProfile) and self._intervals == other._intervals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PowerProfile(horizon={self.horizon}, intervals={self.num_intervals})"
