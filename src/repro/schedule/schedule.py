"""Schedules: a start time for every node of the communication-enhanced DAG.

A :class:`Schedule` maps every node of an instance's DAG (computation and
communication tasks) to an integer start time.  It is a lightweight, copyable
value object; feasibility checking lives in
:mod:`repro.schedule.validation` and cost evaluation in
:mod:`repro.schedule.cost`.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Hashable, Iterator, Mapping, Optional

from repro.schedule.instance import ProblemInstance
from repro.utils.errors import InvalidScheduleError
from repro.utils.names import decode_name, encode_name

__all__ = ["Schedule"]


class Schedule:
    """Start times of all tasks of a problem instance.

    Parameters
    ----------
    instance:
        The problem instance the schedule refers to.
    start_times:
        Node → non-negative integer start time (``int`` or a NumPy integer;
        ``bool``, floats and strings are rejected).  Must cover every node of
        the instance's DAG exactly; extra or missing nodes, and any other
        start value, raise :class:`~repro.utils.errors.InvalidScheduleError`.
    algorithm:
        Name of the algorithm that produced the schedule (for reporting).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        start_times: Mapping[Hashable, int],
        *,
        algorithm: str = "unknown",
    ) -> None:
        self._instance = instance
        self._algorithm = str(algorithm)
        self._cost: Optional[int] = None
        self._excess = None
        self._makespan: Optional[int] = None
        dag_nodes = set(instance.dag.nodes())
        given = set(start_times)
        missing = dag_nodes - given
        if missing:
            example = next(iter(missing))
            raise InvalidScheduleError(
                f"schedule is missing {len(missing)} task(s), e.g. {example!r}"
            )
        extra = given - dag_nodes
        if extra:
            example = next(iter(extra))
            raise InvalidScheduleError(
                f"schedule mentions {len(extra)} unknown task(s), e.g. {example!r}"
            )
        self._start: Dict[Hashable, int] = {}
        for node, value in start_times.items():
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise InvalidScheduleError(
                    f"task {node!r} has non-integer start time {value!r}"
                )
            value = int(value)
            if value < 0:
                raise InvalidScheduleError(f"task {node!r} has negative start time {value}")
            self._start[node] = value

    @classmethod
    def _trusted(
        cls,
        instance: ProblemInstance,
        start_times: Dict[Hashable, int],
        *,
        algorithm: str,
        cost: Optional[int] = None,
    ) -> "Schedule":
        """Internal fast path: adopt *start_times* without membership checks.

        Callers must pass a plain dict of native non-negative ints covering
        exactly the instance's nodes (the greedy phase and the local search
        maintain exactly that invariant); the dict is adopted, not copied.
        *cost* is the schedule's carbon cost when the caller already holds it
        (the local search sums it off its excess buffer);
        :meth:`repro.core.scheduler.CaWoSched.run` reports it instead of
        costing the schedule again.  ``_excess`` holds the read-only excess
        row (power minus budget) that the cost evaluators build once (see
        :mod:`repro.schedule.cost`), and ``_makespan`` the makespan once
        read; a schedule never changes after construction.
        """
        schedule = cls.__new__(cls)
        schedule._instance = instance
        schedule._algorithm = algorithm
        schedule._start = start_times
        schedule._cost = cost
        schedule._excess = None
        schedule._makespan = None
        return schedule

    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> ProblemInstance:
        """The problem instance the schedule belongs to."""
        return self._instance

    @property
    def algorithm(self) -> str:
        """Name of the algorithm that produced the schedule."""
        return self._algorithm

    def start(self, node: Hashable) -> int:
        """Return the start time of *node*."""
        try:
            return self._start[node]
        except KeyError as exc:
            raise InvalidScheduleError(f"unknown task {node!r}") from exc

    def finish(self, node: Hashable) -> int:
        """Return the finish time of *node* (start plus duration)."""
        return self.start(node) + self._instance.dag.duration(node)

    def start_times(self) -> Dict[Hashable, int]:
        """Return a copy of the node → start-time mapping."""
        return dict(self._start)

    @property
    def makespan(self) -> int:
        """Return the latest finish time of any task (computed on first read)."""
        if self._makespan is None:
            duration = self._instance.dag.duration_map()
            self._makespan = max(
                (start + duration[node] for node, start in self._start.items()), default=0
            )
        return self._makespan

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation of the schedule.

        The instance itself is *not* embedded (it is usually shared between
        many schedules); pass it to :meth:`from_dict` when deserialising.
        """
        return {
            "algorithm": self._algorithm,
            "start_times": [
                [encode_name(node), start] for node, start in self._start.items()
            ],
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], instance: ProblemInstance
    ) -> "Schedule":
        """Rebuild a schedule from :meth:`to_dict` output against *instance*."""
        return cls(
            instance,
            {decode_name(node): start for node, start in data["start_times"]},
            algorithm=str(data.get("algorithm", "unknown")),
        )

    # ------------------------------------------------------------------ #
    def copy(self, *, algorithm: Optional[str] = None) -> "Schedule":
        """Return a copy of the schedule (optionally renaming the algorithm)."""
        return Schedule(
            self._instance,
            dict(self._start),
            algorithm=algorithm if algorithm is not None else self._algorithm,
        )

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._start)

    def __len__(self) -> int:
        return len(self._start)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._start

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Schedule)
            and self._instance is other._instance
            and self._start == other._start
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(algorithm={self._algorithm!r}, tasks={len(self._start)}, "
            f"makespan={self.makespan})"
        )
