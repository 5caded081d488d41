"""Green-power profiles: the horizon, its intervals and their budgets.

The paper divides the horizon ``[0, T)`` into ``J`` intervals ``I_j = [b_j,
e_j)`` of lengths ``ℓ_j``; within interval ``I_j`` a constant *green power
budget* ``G_j`` is available per time unit.  Power drawn above the budget is
brown power and counts as carbon cost.  :class:`PowerProfile` is the immutable
description of this staircase function; schedulers additionally keep mutable
"remaining budget" views derived from it (see
:mod:`repro.core.subdivision`).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.utils.errors import InvalidProfileError
from repro.utils.validation import INT64_MAX

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
            length = int(length)
            if length <= 0:
                raise InvalidProfileError(f"interval lengths must be positive, got {length}")
            self._intervals.append(Interval(begin, begin + length, int(budget)))
            begin += length
        self._boundaries = [iv.begin for iv in self._intervals] + [begin]

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_boundaries(cls, boundaries: Sequence[int], budgets: Sequence[int]) -> "PowerProfile":
        """Build a profile from interval boundaries ``[b_1=0, e_1, ..., e_J=T]``."""
        if len(boundaries) < 2:
            raise InvalidProfileError("need at least two boundaries")
        if boundaries[0] != 0:
            raise InvalidProfileError("the first boundary must be 0")
        lengths = [int(b) - int(a) for a, b in zip(boundaries, boundaries[1:])]
        return cls(lengths, budgets)

    @classmethod
    def constant(cls, horizon: int, budget: int) -> "PowerProfile":
        """Build a single-interval profile with a constant budget."""
        return cls([int(horizon)], [int(budget)])

    @classmethod
    def from_time_unit_budgets(cls, budgets: Sequence[int]) -> "PowerProfile":
        """Build a profile from a per-time-unit budget array (merging runs)."""
        if len(budgets) == 0:
            raise InvalidProfileError("need at least one time unit")
        lengths: List[int] = []
        values: List[int] = []
        current = int(budgets[0])
        run = 0
        for value in budgets:
            value = int(value)
            if value == current:
                run += 1
            else:
                lengths.append(run)
                values.append(current)
                current = value
                run = 1
        lengths.append(run)
        values.append(current)
        return cls(lengths, values)

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
        """Rebuild a profile from :meth:`to_dict` output."""
        return cls(
            [int(length) for length in data["lengths"]],
            [int(budget) for budget in data["budgets"]],
        )

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

    def total_green_energy(self) -> int:
        """Return the total green energy over the horizon (sum of budget × length)."""
        return sum(iv.budget * iv.length for iv in self._intervals)

    def max_budget(self) -> int:
        """Return the largest per-time-unit budget."""
        return max(iv.budget for iv in self._intervals)

    def min_budget(self) -> int:
        """Return the smallest per-time-unit budget."""
        return min(iv.budget for iv in self._intervals)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def restricted(self, horizon: int) -> "PowerProfile":
        """Return a copy truncated (or identical) to the given horizon."""
        horizon = int(horizon)
        if horizon <= 0:
            raise InvalidProfileError(f"horizon must be positive, got {horizon}")
        if horizon > self.horizon:
            raise InvalidProfileError(
                f"cannot restrict to {horizon} > current horizon {self.horizon}"
            )
        lengths: List[int] = []
        budgets: List[int] = []
        for iv in self._intervals:
            if iv.begin >= horizon:
                break
            lengths.append(min(iv.end, horizon) - iv.begin)
            budgets.append(iv.budget)
        return PowerProfile(lengths, budgets)

    def extended(self, horizon: int, budget: int = 0) -> "PowerProfile":
        """Return a copy extended to *horizon* with a final interval of *budget*."""
        horizon = int(horizon)
        if horizon < self.horizon:
            raise InvalidProfileError(
                f"cannot extend to {horizon} < current horizon {self.horizon}"
            )
        if horizon == self.horizon:
            return PowerProfile(
                [iv.length for iv in self._intervals], [iv.budget for iv in self._intervals]
            )
        lengths = [iv.length for iv in self._intervals] + [horizon - self.horizon]
        budgets = [iv.budget for iv in self._intervals] + [int(budget)]
        return PowerProfile(lengths, budgets)

    def refined(self, extra_boundaries: Iterable[int]) -> "PowerProfile":
        """Return an equivalent profile with additional interval boundaries.

        The budget staircase is unchanged; intervals are only split at the
        extra boundary points (values outside ``(0, T)`` are ignored).  This is
        the primitive behind the heuristics' interval subdivision.
        """
        points = sorted(
            {b for b in self._boundaries}
            | {int(x) for x in extra_boundaries if 0 < int(x) < self.horizon}
        )
        lengths = [b - a for a, b in zip(points, points[1:])]
        budgets = [self.budget_at(a) for a in points[:-1]]
        return PowerProfile(lengths, budgets)

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerProfile) and self._intervals == other._intervals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PowerProfile(horizon={self.horizon}, intervals={self.num_intervals})"
