"""Problem instances: a communication-enhanced DAG plus a green-power profile.

A :class:`ProblemInstance` bundles everything the optimisation problem of the
paper needs: the communication-enhanced DAG ``Gc`` (tasks, durations,
processors, precedence), the green-power profile over the horizon ``[0, T)``,
and therefore the deadline ``T`` itself (the profile's horizon).  All
schedulers, cost evaluators and exact algorithms take a problem instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable

from repro.carbon.intervals import PowerProfile
from repro.mapping.enhanced_dag import EnhancedDAG
from repro.utils.errors import InfeasibleScheduleError, InvalidProfileError, InvalidScheduleError
from repro.utils.validation import INT64_MAX

__all__ = ["ProblemInstance"]


@dataclass(frozen=True)
class ProblemInstance:
    """An instance of the carbon-aware scheduling problem.

    Parameters
    ----------
    dag:
        The communication-enhanced DAG (fixed mapping and ordering included).
    profile:
        The green-power profile; its horizon is the deadline ``T``.
    name:
        Optional instance label used in experiment reports.
    metadata:
        Free-form key/value annotations (workflow family, scenario, deadline
        factor, cluster name, ...) carried through the experiment pipeline.

    Raises
    ------
    InfeasibleScheduleError
        If no schedule can meet the deadline (the DAG's critical path is
        longer than the horizon).
    InvalidScheduleError
        If a schedule's power and budget sums could exceed the ``int64``
        rows of the NumPy evaluators: the reference cost, the timeline and
        the exact solvers (see :meth:`_check_sums`).
    """

    dag: EnhancedDAG
    profile: PowerProfile
    name: str = "instance"
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Values derived from this instance alone; see :meth:`_memoised`.
    _memo: Dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.profile.horizon <= 0:
            raise InvalidProfileError("the profile horizon must be positive")
        critical = self.dag.critical_path_duration()
        if critical > self.profile.horizon:
            raise InfeasibleScheduleError(
                f"deadline {self.profile.horizon} is shorter than the critical "
                f"path duration {critical}; no feasible schedule exists"
            )
        self._check_sums()

    def _check_sums(self) -> None:
        """Raise :class:`InvalidScheduleError` if a cost sum could exceed ``int64``.

        Each power and budget fits ``int64`` on its own; the bound on their
        sums is the total idle and working power of the platform over
        ``max(T, sum of durations)`` time units, plus the largest budget
        over ``T``.
        """
        # The platform sums its powers and the DAG its durations once, so
        # every instance over the DAG shares the sums.
        power = self.total_idle_power() + self.total_work_power()
        horizon = self.profile.horizon
        length = max(horizon, self.dag._total_duration)
        budget = max(interval.budget for interval in self.profile.intervals())
        bound = power * length + budget * horizon
        if bound > INT64_MAX:
            raise InvalidScheduleError(
                f"power {power} over {length} time units plus budget {budget} over "
                f"{horizon} time units is {bound}, more than the int64 costs can hold "
                f"({INT64_MAX})"
            )

    # ------------------------------------------------------------------ #
    @property
    def deadline(self) -> int:
        """The deadline ``T`` (the profile horizon)."""
        return self.profile.horizon

    @property
    def num_tasks(self) -> int:
        """Number of nodes of the communication-enhanced DAG (``N = n + |E'|``)."""
        return self.dag.num_nodes

    def total_idle_power(self) -> int:
        """Total idle power of the platform (drawn every time unit)."""
        return self.dag.platform.total_idle_power()

    def total_work_power(self) -> int:
        """Total working power of the platform (upper bound on the variable draw)."""
        return self.dag.platform.total_work_power()

    def _memoised(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Return ``compute()``, computed once per live instance under *key*.

        Holds what several runs on one instance would otherwise recompute
        and what depends on its profile or deadline: the facade's wire
        payload and canonical text, and the greedy phase's initial EST/LST
        tracker, task orders and budget intervals.  A value
        lives on the narrowest object it depends on, so what depends on the
        DAG alone lives in ``EnhancedDAG._memoised``, shared by every
        instance over it.
        Callers treat values as read-only and copy what they mutate.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def describe(self) -> Dict[str, object]:
        """Return a dictionary summary (used by experiment reports)."""
        summary: Dict[str, object] = {
            "name": self.name,
            "tasks": self.dag.num_nodes,
            "comm_tasks": self.dag.num_comm_tasks,
            "processors": self.dag.platform.num_processors,
            "deadline": self.deadline,
            "intervals": self.profile.num_intervals,
        }
        summary.update(self.metadata)
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProblemInstance(name={self.name!r}, tasks={self.dag.num_nodes}, "
            f"deadline={self.deadline})"
        )
