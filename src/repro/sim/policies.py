"""Online scheduling policies: who starts next, and when.

A policy answers the two online questions the offline paper never had to
ask: in which *order* should queued workflows grab free slots, and should a
workflow be committed *now* or deferred to a greener moment?  The actual
schedule of a committed workflow is always computed by the paper's variants
(through a :class:`~repro.api.client.Client`, so repeated plans hit the
result cache); policies only steer *when* that happens and
*what forecast window* the variant sees.

Four policies are provided:

* :class:`FifoPolicy` — commit in arrival order as soon as a slot frees up,
* :class:`EdfPolicy` — earliest (absolute) deadline first,
* :class:`CarbonThresholdPolicy` — defer while the grid is dirty, as long as
  the remaining deadline slack allows it,
* :class:`ReschedulePolicy` — plan every pending workflow on arrival, re-plan
  all of them periodically against the fresh forecast, and dispatch the
  cheapest predicted schedule first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.scheduler import ScheduleResult
from repro.sim.forecast import CarbonForecast
from repro.sim.signal import CarbonSignal
from repro.sim.workload import SimJob
from repro.utils.errors import SimulationError
from repro.utils.validation import check_in_range, check_positive_int

__all__ = [
    "PolicyContext",
    "Policy",
    "FifoPolicy",
    "EdfPolicy",
    "CarbonThresholdPolicy",
    "ReschedulePolicy",
    "POLICIES",
    "make_policy",
]


@dataclass
class PolicyContext:
    """The engine facilities a policy may use.

    Attributes
    ----------
    signal:
        The true carbon signal (policies may observe the *present*).
    forecast:
        The forecast model (policies must use it for the *future*).
    plan:
        ``plan(job, now)`` — schedule *job*'s planning window starting at
        *now* through the client facade and return the
        :class:`ScheduleResult` (cached for repeated identical plans).
    emit:
        ``emit(kind, job_name, **data)`` — append an event to the log.
    """

    signal: CarbonSignal
    forecast: CarbonForecast
    plan: Callable[[SimJob, int], ScheduleResult]
    emit: Callable[..., None]


class Policy:
    """Base class of all online policies.

    Subclasses override :meth:`order` (dispatch order of the pending queue)
    and :meth:`wake_time` (``None`` = commit now, otherwise the next virtual
    time at which the decision should be revisited).  The optional hooks
    :meth:`on_arrival` / :meth:`on_tick` let planning policies keep their
    predictions fresh; a non-``None`` :attr:`tick_period` makes the engine
    fire periodic ticks.
    """

    #: Registry name of the policy (set by subclasses).
    name: str = "?"
    #: Period of the engine's tick events; ``None`` disables ticks.
    tick_period: Optional[int] = None

    def order(self, pending: List[SimJob], now: int, ctx: PolicyContext) -> List[SimJob]:
        """Return the pending jobs in dispatch order (default: arrival order)."""
        return sorted(pending, key=lambda job: (job.arrival, job.index))

    def wake_time(self, job: SimJob, now: int, ctx: PolicyContext) -> Optional[int]:
        """Return ``None`` to commit *job* now, or a strictly later wake time."""
        return None

    def on_arrival(self, job: SimJob, now: int, ctx: PolicyContext) -> None:
        """Hook invoked when *job* enters the pending queue."""

    def on_tick(self, pending: List[SimJob], now: int, ctx: PolicyContext) -> None:
        """Hook invoked on every periodic tick (only if :attr:`tick_period`)."""


class FifoPolicy(Policy):
    """First in, first out: commit in arrival order, never defer."""

    name = "fifo"


class EdfPolicy(Policy):
    """Earliest deadline first: the workflow closest to its deadline goes first."""

    name = "edf"

    def order(self, pending: List[SimJob], now: int, ctx: PolicyContext) -> List[SimJob]:
        return sorted(pending, key=lambda job: (job.abs_deadline, job.index))


class CarbonThresholdPolicy(Policy):
    """Defer commits while the observed grid greenness is below a threshold.

    A workflow waits (in arrival order) until either the signal's green
    fraction reaches *threshold* or its deadline slack runs out — it is never
    deferred past its latest feasible start.  Between checks the policy
    sleeps *check_interval* time units.

    Parameters
    ----------
    threshold:
        Green fraction in ``[0, 1]`` above which commits proceed.
    check_interval:
        Re-evaluation period while deferring (positive).
    """

    name = "carbon"

    def __init__(self, *, threshold: float = 0.5, check_interval: int = 30) -> None:
        check_in_range(threshold, "threshold", low=0.0, high=1.0)
        self.threshold = float(threshold)
        self.check_interval = check_positive_int(check_interval, "check_interval")

    def wake_time(self, job: SimJob, now: int, ctx: PolicyContext) -> Optional[int]:
        if now >= job.latest_start:
            return None  # out of slack: commit, green or not
        if ctx.signal.green_fraction(now) >= self.threshold:
            return None
        wake = min(job.latest_start, now + self.check_interval)
        ctx.emit(
            "defer",
            job.name,
            wake=wake,
            green=round(ctx.signal.green_fraction(now), 4),
            threshold=self.threshold,
        )
        return wake


class ReschedulePolicy(Policy):
    """Plan on arrival, re-plan pending workflows periodically, cheapest first.

    Every pending workflow carries the carbon cost its most recent plan
    predicted; dispatch picks the cheapest prediction (ties broken by
    arrival index).  Every *period* time units all pending workflows are
    re-planned against the current forecast, keeping predictions honest as
    the remaining window shrinks.  Plans whose window content is unchanged
    (notably the commit-time plan right after an arrival-time plan) are
    answered by the client's result cache.

    Parameters
    ----------
    period:
        Re-planning period in time units (positive).
    """

    name = "reschedule"

    def __init__(self, *, period: int = 120) -> None:
        self.tick_period = check_positive_int(period, "period")
        self._predicted: dict = {}

    def _refresh(self, job: SimJob, now: int, ctx: PolicyContext) -> int:
        result = ctx.plan(job, now)
        self._predicted[job.index] = result.carbon_cost
        return result.carbon_cost

    def order(self, pending: List[SimJob], now: int, ctx: PolicyContext) -> List[SimJob]:
        for job in pending:
            if job.index not in self._predicted:
                self._refresh(job, now, ctx)
        return sorted(
            pending, key=lambda job: (self._predicted[job.index], job.index)
        )

    def on_arrival(self, job: SimJob, now: int, ctx: PolicyContext) -> None:
        cost = self._refresh(job, now, ctx)
        ctx.emit("plan", job.name, predicted=cost)

    def on_tick(self, pending: List[SimJob], now: int, ctx: PolicyContext) -> None:
        for job in sorted(pending, key=lambda job: job.index):
            cost = self._refresh(job, now, ctx)
            ctx.emit("reschedule", job.name, predicted=cost)


#: Registry of the policy names.
POLICIES = (
    FifoPolicy.name,
    EdfPolicy.name,
    CarbonThresholdPolicy.name,
    ReschedulePolicy.name,
)


def make_policy(
    name: str,
    *,
    threshold: float = 0.5,
    check_interval: int = 30,
    reschedule_period: int = 120,
) -> Policy:
    """Build the policy called *name*.

    Parameters
    ----------
    name:
        One of :data:`POLICIES`.
    threshold, check_interval:
        Parameters of the carbon-threshold policy.
    reschedule_period:
        Parameter of the periodic rescheduling policy.
    """
    if name == FifoPolicy.name:
        return FifoPolicy()
    if name == EdfPolicy.name:
        return EdfPolicy()
    if name == CarbonThresholdPolicy.name:
        return CarbonThresholdPolicy(threshold=threshold, check_interval=check_interval)
    if name == ReschedulePolicy.name:
        return ReschedulePolicy(period=reschedule_period)
    known = ", ".join(POLICIES)
    raise SimulationError(f"unknown policy {name!r}; known: {known}")
