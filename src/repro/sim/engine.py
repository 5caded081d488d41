"""The deterministic discrete-event simulation engine.

:class:`Simulator` advances a virtual clock through four event kinds —
workflow arrivals, slot releases (*finish*), periodic policy ticks, and
deferral wake-ups — over a platform of ``slots`` identical cluster replicas.
Each arriving workflow is queued; whenever a decision point passes, the
configured :class:`~repro.sim.policies.Policy` picks which queued workflows
to commit.  Committing plans the workflow with one of the paper's algorithm
variants (through a :class:`~repro.api.client.Client`, so identical plans
are served from the result cache) against the *forecast*
window ``[now, deadline)``; the resulting schedule is then executed verbatim
and its actual carbon cost is re-evaluated against the *true* signal — the
gap between the two is exactly the price of imperfect forecasts.

Everything is deterministic: the virtual clock is integer, ties are broken
by explicit priorities and sequence numbers, all randomness flows through
:func:`repro.utils.rng.derive_rng`, and no wall-clock value enters the
report.  The same :class:`SimulationConfig` therefore always produces a
byte-identical :class:`~repro.sim.report.SimReport`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Set, Tuple

from repro.api.client import Client
from repro.api.jobs import check_variant
from repro.carbon.traces import SYNTHETIC_TRACE_PROFILES, synthetic_daily_trace
from repro.core.scheduler import CaWoSched, ScheduleResult
from repro.platform_.presets import cluster_preset
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.sim.arrivals import make_arrivals
from repro.sim.events import SimEvent
from repro.sim.forecast import FORECAST_MODELS, make_forecast
from repro.sim.metrics import JobRecord, compute_metrics
from repro.sim.policies import PolicyContext, make_policy
from repro.sim.report import SimReport
from repro.sim.signal import CarbonSignal
from repro.sim.workload import SimJob, WorkloadConfig, build_job
from repro.utils.errors import SimulationError
from repro.utils.rng import derive_rng

__all__ = ["SimulationConfig", "Simulator", "simulate"]

# Priorities of simultaneous events: slots free up before new work is
# considered; policy housekeeping runs after the state of the world settled.
_PRIO_FINISH = 0
_PRIO_ARRIVAL = 1
_PRIO_TICK = 2
_PRIO_WAKE = 3

#: The client counters echoed in :attr:`SimReport.service`, in report order.
_REPORT_STATS = (
    "computed", "solved", "solve_hits", "size", "max_size", "hits", "misses", "evictions",
)


@dataclass(frozen=True)
class SimulationConfig:
    """The complete, plain-data description of one simulation run.

    Every field is JSON-compatible, and :meth:`to_dict` echoes the complete
    configuration verbatim into the report.
    """

    # Clock and platform.
    horizon: int = 2880
    slots: int = 4
    seed: int = 0
    # Arrival process.
    arrivals: str = "poisson"
    rate: float = 0.02
    burst_period: int = 240
    burst_size: int = 5
    burst_jitter: int = 0
    arrival_times: Optional[Tuple[int, ...]] = None
    # Policy.
    policy: str = "fifo"
    threshold: float = 0.5
    check_interval: int = 30
    reschedule_period: int = 120
    # Forecast and signal.
    forecast: str = "oracle"
    ma_window: int = 120
    trace: str = "solar"
    trace_noise: float = 0.0
    sample_duration: int = 60
    green_cap: float = 0.8
    # Workload.
    families: Tuple[str, ...] = ("atacseq", "eager")
    tasks: Tuple[int, ...] = (12,)
    cluster: str = "small"
    deadline_factor: float = 2.0
    # Scheduler.
    variant: str = "pressWR-LS"
    block_size: int = 3
    window: int = 10
    cache_size: int = 256

    def __post_init__(self) -> None:
        if int(self.horizon) <= 0:
            raise SimulationError(f"horizon must be positive, got {self.horizon}")
        if int(self.slots) <= 0:
            raise SimulationError(f"slots must be positive, got {self.slots}")
        if int(self.seed) < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        if self.forecast not in FORECAST_MODELS:
            known = ", ".join(FORECAST_MODELS)
            raise SimulationError(f"unknown forecast model {self.forecast!r}; known: {known}")
        if int(self.ma_window) <= 0:
            raise SimulationError(f"ma_window must be positive, got {self.ma_window}")
        if self.trace not in SYNTHETIC_TRACE_PROFILES:
            known = ", ".join(sorted(SYNTHETIC_TRACE_PROFILES))
            raise SimulationError(f"unknown trace kind {self.trace!r}; known: {known}")
        if int(self.cache_size) <= 0:
            raise SimulationError(f"cache_size must be positive, got {self.cache_size}")
        # Raises UnknownVariant, the client's error for the same mistake.
        check_variant(self.variant)
        # Arrival, policy, signal, scheduler and workload parameters are
        # validated by building each component once; bare range errors from
        # the validators are normalised to SimulationError so every bad
        # configuration fails the same way (the CLI turns them into parser
        # errors).
        try:
            make_arrivals(
                self.arrivals,
                rate=self.rate,
                period=self.burst_period,
                burst_size=self.burst_size,
                jitter=self.burst_jitter,
                times=self.arrival_times,
                seed=self.seed,
            )
            make_policy(
                self.policy,
                threshold=self.threshold,
                check_interval=self.check_interval,
                reschedule_period=self.reschedule_period,
            )
            synthetic_daily_trace(
                self.trace, sample_duration=self.sample_duration, noise=self.trace_noise
            )
            if not 0.0 <= float(self.green_cap) <= 1.0:
                raise ValueError(f"green_cap must lie in [0, 1], got {self.green_cap}")
            self.scheduler()
        except (TypeError, ValueError) as exc:
            raise SimulationError(str(exc)) from exc
        self.workload()

    # ------------------------------------------------------------------ #
    def workload(self) -> WorkloadConfig:
        """Return the workload description of this configuration."""
        return WorkloadConfig(
            families=tuple(self.families),
            sizes=tuple(int(s) for s in self.tasks),
            cluster=self.cluster,
            deadline_factor=float(self.deadline_factor),
        )

    def scheduler(self) -> CaWoSched:
        """Return the scheduler this configuration asks for."""
        return CaWoSched(block_size=self.block_size, window=self.window)

    def to_dict(self) -> Dict[str, object]:
        """Return the configuration as a plain dictionary, fields in declaration order.

        Tuples (and lists) become lists.
        """
        values = {field.name: getattr(self, field.name) for field in fields(self)}
        return {
            name: list(value) if isinstance(value, (tuple, list)) else value
            for name, value in values.items()
        }


class Simulator:
    """One online simulation run over a :class:`SimulationConfig`.

    Parameters
    ----------
    config:
        The run description.  The run plans through its own
        :class:`~repro.api.Client` with the configuration's cache size.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self._workload = config.workload()
        self._scheduler = config.scheduler()
        self._client = Client(cache_size=config.cache_size)
        cluster = cluster_preset(config.cluster)
        trace = synthetic_daily_trace(
            config.trace,
            sample_duration=config.sample_duration,
            rng=derive_rng(config.seed, "trace"),
            noise=config.trace_noise,
        )
        self._signal = CarbonSignal(
            trace,
            idle_power=cluster.total_idle_power(),
            work_power=cluster.total_work_power(),
            green_cap=config.green_cap,
        )
        self._forecast = make_forecast(
            config.forecast, self._signal, ma_window=config.ma_window
        )
        self._policy = make_policy(
            config.policy,
            threshold=config.threshold,
            check_interval=config.check_interval,
            reschedule_period=config.reschedule_period,
        )
        self._arrivals = make_arrivals(
            config.arrivals,
            rate=config.rate,
            period=config.burst_period,
            burst_size=config.burst_size,
            jitter=config.burst_jitter,
            times=config.arrival_times,
            seed=config.seed,
        )
        self._ctx = PolicyContext(
            signal=self._signal,
            forecast=self._forecast,
            plan=self._plan,
            emit=self._emit,
        )
        # Mutable run state.
        self._events: List[SimEvent] = []
        self._records: List[JobRecord] = []
        self._pending: List[SimJob] = []
        self._running: Dict[int, JobRecord] = {}
        self._oracle_costs: Dict[int, int] = {}
        self._free_slots = int(config.slots)
        self._event_seq = 0
        self._heap: List[Tuple[int, int, int, str, object]] = []
        self._heap_seq = itertools.count()
        self._wakes: Set[int] = set()
        self._arrivals_left = 0
        self._now = 0

    # ------------------------------------------------------------------ #
    # Planning helpers
    # ------------------------------------------------------------------ #
    def _window_length(self, job: SimJob, now: int) -> int:
        """Length of the planning window from *now* to the job's deadline.

        Never shorter than the critical path (the minimum makespan): a
        workflow committed past its latest feasible start still gets a
        well-formed (deadline-missing) window to schedule into.
        """
        return max(job.abs_deadline - now, job.min_makespan)

    def _instance(self, job: SimJob, profile) -> ProblemInstance:
        return ProblemInstance(
            job.dag,
            profile,
            name=job.name,
            metadata={"arrival": job.arrival, "family": job.family},
        )

    def _plan(self, job: SimJob, now: int) -> ScheduleResult:
        """Plan *job* from *now* against the forecast, through the facade."""
        length = self._window_length(job, now)
        instance = self._instance(job, self._forecast.profile(now, length))
        return self._client.solve(instance, self.config.variant, scheduler=self._scheduler)

    def _oracle_cost(self, job: SimJob) -> int:
        """Carbon cost of the clairvoyant offline schedule (planned at arrival).

        With the oracle forecast and an immediate commit, the online plan is
        the identical request and is answered from the client's cache.
        """
        length = self._window_length(job, job.arrival)
        instance = self._instance(job, self._signal.window(job.arrival, length))
        result = self._client.solve(
            instance, self.config.variant, scheduler=self._scheduler
        )
        return result.carbon_cost

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #
    def _emit(self, kind: str, job: str = "", **data: object) -> None:
        self._events.append(
            SimEvent(time=self._now, seq=self._event_seq, kind=kind, job=job, data=dict(data))
        )
        self._event_seq += 1

    def _push(self, time: int, priority: int, kind: str, payload: object = None) -> None:
        heapq.heappush(self._heap, (int(time), priority, next(self._heap_seq), kind, payload))

    def _push_wake(self, time: int) -> None:
        if time not in self._wakes:
            self._wakes.add(time)
            self._push(time, _PRIO_WAKE, "wake")

    # ------------------------------------------------------------------ #
    # The event loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimReport:
        """Execute the simulation and return its report."""
        times = self._arrivals.times(self.config.horizon)
        self._arrivals_left = len(times)
        for index, time in enumerate(times):
            self._push(time, _PRIO_ARRIVAL, "arrival", index)
        if self._policy.tick_period:
            self._push(self._policy.tick_period, _PRIO_TICK, "tick")

        self._now = 0
        while self._heap:
            now = self._heap[0][0]
            self._now = now
            while self._heap and self._heap[0][0] == now:
                _, _, _, kind, payload = heapq.heappop(self._heap)
                self._handle(kind, payload, now)
            self._dispatch(now)

        metrics = compute_metrics(
            self._records, slots=self.config.slots, horizon=self.config.horizon
        )
        stats = self._client.stats()
        return SimReport(
            config=self.config.to_dict(),
            events=tuple(self._events),
            jobs=tuple(self._records),
            metrics=metrics,
            service={key: stats[key] for key in _REPORT_STATS},
        )

    def _handle(self, kind: str, payload: object, now: int) -> None:
        if kind == "finish":
            record = self._running.pop(int(payload))
            self._free_slots += 1
            self._records.append(record)
            self._emit(
                "finish",
                record.name,
                online_cost=record.online_cost,
                oracle_cost=record.oracle_cost,
                missed=record.missed,
            )
        elif kind == "arrival":
            index = int(payload)
            self._arrivals_left -= 1
            job = build_job(self._workload, self.config.seed, index, now)
            self._pending.append(job)
            self._oracle_costs[job.index] = self._oracle_cost(job)
            self._emit("arrival", job.name, **job.describe())
            self._policy.on_arrival(job, now, self._ctx)
        elif kind == "tick":
            self._policy.on_tick(list(self._pending), now, self._ctx)
            if self._pending or self._running or self._arrivals_left:
                self._push(now + self._policy.tick_period, _PRIO_TICK, "tick")
        elif kind == "wake":
            self._wakes.discard(now)
        else:  # pragma: no cover - engine invariant
            raise SimulationError(f"unknown event kind {kind!r}")

    def _dispatch(self, now: int) -> None:
        """Commit pending workflows to free slots, as the policy directs."""
        if not self._pending or self._free_slots <= 0:
            return
        ordered = self._policy.order(list(self._pending), now, self._ctx)
        wakes: List[int] = []
        for job in ordered:
            if self._free_slots <= 0:
                break
            wake = self._policy.wake_time(job, now, self._ctx)
            if wake is None:
                self._pending.remove(job)
                self._commit(job, now)
            else:
                if wake <= now:  # pragma: no cover - policy contract
                    raise SimulationError(
                        f"policy {self._policy.name!r} returned a non-future wake time"
                    )
                wakes.append(wake)
        if self._pending and wakes:
            self._push_wake(min(wakes))

    def _commit(self, job: SimJob, now: int) -> None:
        """Fix *job*'s schedule, occupy a slot and book its completion."""
        result = self._plan(job, now)
        length = self._window_length(job, now)
        true_instance = self._instance(job, self._signal.window(now, length))
        online_schedule = Schedule(
            true_instance, result.schedule.start_times(), algorithm=result.variant
        )
        online_cost = carbon_cost(online_schedule)
        completion = now + result.makespan
        record = JobRecord(
            index=job.index,
            name=job.name,
            family=job.family,
            num_tasks=job.dag.num_nodes,
            arrival=job.arrival,
            start=now,
            completion=completion,
            deadline=job.abs_deadline,
            missed=completion > job.abs_deadline,
            variant=self.config.variant,
            predicted_cost=result.carbon_cost,
            online_cost=online_cost,
            oracle_cost=self._oracle_costs.pop(job.index),
        )
        self._free_slots -= 1
        self._running[job.index] = record
        self._push(completion, _PRIO_FINISH, "finish", job.index)
        self._emit(
            "commit",
            job.name,
            start=now,
            completion=completion,
            predicted=result.carbon_cost,
            online=online_cost,
        )


def simulate(config: SimulationConfig) -> SimReport:
    """Run one simulation and return its report (see :class:`Simulator`)."""
    return Simulator(config).run()
