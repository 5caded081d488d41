"""The benchmark's workloads: generated inputs, the timed call, output checks.

Every workload draws an endless, deterministic stream of inputs from its
seed; the library only ever sees the generated inputs.  One *item* is one
call into the library that a user would make and wait for:

* ``offline_grid`` — build one instance of the default experiment grid at
  the fig8 benchmark sizes (workflow generation, HEFT, enhanced DAG, power
  profile) and schedule it with every algorithm variant through
  :class:`repro.api.Client`.  Every instance is distinct, so the client's
  result cache never hits.  Work unit: instance.
* ``online_stream`` — one online simulation with the
  :class:`~repro.sim.SimulationConfig` defaults (Poisson arrivals, four
  cluster replicas, an exact oracle forecast) over an eighth of the default
  horizon.  Each arrival is planned twice with identical inputs (the
  offline-oracle plan and the commit-time plan), so half the plans are
  cache hits.  Work unit: arrival.
* ``online_replan`` — arrivals at the default rate on a single, congested
  cluster replica under the periodic re-planning policy with a
  moving-average forecast, so queued workflows are re-planned against
  shrinking windows and most plans are cache misses.  Work unit: arrival.

:meth:`Workload.check` raises :class:`CheckFailed` when an output is wrong.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np

import repro.experiments.instances as instances
from repro.api import Client, Job
from repro.core.variants import variant_names
from repro.schedule.validation import check_schedule
from repro.sim import SimulationConfig, simulate
from repro.sim.arrivals import make_arrivals

__all__ = ["CheckFailed", "Workload", "WORKLOADS", "cold_start"]


class CheckFailed(Exception):
    """An output of the library is wrong."""


def brown_energy(schedule) -> int:
    """Carbon cost of *schedule* from its definition, ``Σ_t max(P_t − G_t, 0)``.

    Written independently of the library's evaluators: platform power per
    time unit (idle power plus the working power of every running task)
    against the green budget per time unit, the last budget extending past
    the horizon.
    """
    instance = schedule.instance
    dag = instance.dag
    profile = instance.profile
    starts = schedule.start_times()
    finish = max(
        (starts[node] + dag.duration(node) for node in dag.nodes()), default=0
    )
    horizon = max(profile.horizon, finish)
    power = np.full(horizon, instance.total_idle_power(), dtype=np.int64)
    for node in dag.nodes():
        begin = starts[node]
        power[begin : begin + dag.duration(node)] += dag.processor_spec(node).p_work
    budget = np.asarray(profile.budgets_per_time_unit(), dtype=np.int64)
    budget = np.concatenate(
        [budget, np.full(horizon - profile.horizon, budget[-1], dtype=np.int64)]
    )
    return int(np.maximum(power - budget, 0).sum())


class Workload:
    """Base class: an input stream, the timed call and its output check."""

    name = "?"

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def next_input(self) -> object:
        """Return the next input of the stream."""
        raise NotImplementedError

    def run(self, item: object) -> object:
        """Make the timed call into the library for *item*."""
        raise NotImplementedError

    def check(self, item: object, output: object) -> int:
        """Check *output* and return the number of work units it covered."""
        raise NotImplementedError

    def digest(self, output: object) -> object:
        """Return the part of *output* that must be identical across runs."""
        raise NotImplementedError


class OfflineGrid(Workload):
    """Experiment-grid instances, every variant, one client (always misses)."""

    name = "offline_grid"
    #: The instance sizes of the fig8 benchmark grid.
    sizes = (30, 60)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.client = Client()
        self.variants = tuple(variant_names())
        self._pass: List[instances.InstanceSpec] = []

    def next_input(self):
        # Each pass is the whole default grid under a fresh seed, in a seeded
        # order; successive passes never repeat an instance.
        if not self._pass:
            grid_seed = self._rng.randrange(2**31)
            self._pass = instances.default_grid(sizes=self.sizes, seed=grid_seed)
            self._rng.shuffle(self._pass)
        return self._pass.pop()

    def run(self, item):
        # Called through its module so that the traced run sees the call.
        instance = instances.make_instance(item)
        return self.client.submit(Job.from_instance(instance, variants=self.variants))

    def check(self, item, output) -> int:
        if output.cached:
            raise CheckFailed(f"{item.label}: a distinct instance was served from the cache")
        results = output.results
        if results is None or [r.variant for r in results] != list(self.variants):
            raise CheckFailed(f"{item.label}: expected one result per variant")
        costs: Dict[str, int] = {}
        for result in results:
            schedule = result.schedule
            deadline = schedule.instance.deadline
            check_schedule(schedule)
            if not 0 < result.makespan <= deadline:
                raise CheckFailed(
                    f"{item.label}/{result.variant}: makespan {result.makespan} "
                    f"outside (0, {deadline}]"
                )
            expected = brown_energy(schedule)
            if result.carbon_cost != expected:
                raise CheckFailed(
                    f"{item.label}/{result.variant}: cost {result.carbon_cost}, "
                    f"recomputed {expected}"
                )
            costs[result.variant] = result.carbon_cost
        for variant, cost in costs.items():
            parent = variant[: -len("-LS")] if variant.endswith("-LS") else None
            if parent in costs and cost > costs[parent]:
                raise CheckFailed(
                    f"{item.label}: {variant} cost {cost} worse than {parent} {costs[parent]}"
                )
        return 1

    def digest(self, output) -> object:
        return [(r.variant, r.carbon_cost, r.makespan) for r in output.records]


class OnlineSimulation(Workload):
    """One online simulation per item; subclasses fix the scenario.

    Arrivals, rate and workload mix are the :class:`SimulationConfig`
    defaults; only the seed, the horizon and the scenario settings change.
    """

    #: An eighth of the default horizon (about 7 arrivals).  A 20 s run
    #: holds only 40-90 default-horizon simulations, too few for a steady
    #: 90th percentile: over five seeds its IQR was 0.11-0.12 of its median,
    #: and still 0.10-0.16 over ten seeds at a quarter of the horizon.
    horizon = SimulationConfig.horizon // 8
    settings: Dict[str, object] = {}

    def next_input(self) -> SimulationConfig:
        return SimulationConfig(
            horizon=self.horizon, seed=self._rng.randrange(2**31), **self.settings
        )

    def run(self, item: SimulationConfig):
        return simulate(item)

    def check(self, item: SimulationConfig, report) -> int:
        jobs = report.jobs
        expected = make_arrivals(
            item.arrivals,
            rate=item.rate,
            period=item.burst_period,
            burst_size=item.burst_size,
            jitter=item.burst_jitter,
            seed=item.seed,
        ).times(item.horizon)
        if sorted(job.arrival for job in jobs) != expected:
            raise CheckFailed(f"{len(jobs)} of {len(expected)} workflows completed")
        for job in jobs:
            if not job.arrival <= job.start < job.completion:
                raise CheckFailed(f"{job.name}: start {job.start} outside its arrival/completion")
            if min(job.online_cost, job.oracle_cost, job.predicted_cost) < 0:
                raise CheckFailed(f"{job.name}: negative carbon cost")
            self.check_job(job)
        return len(jobs)

    def check_job(self, job) -> None:
        """Scenario-specific checks of one completed workflow."""

    def digest(self, report) -> object:
        return report.to_dict()


class OnlineStream(OnlineSimulation):
    """Plenty of replicas and an exact forecast: plans repeat, the cache hits."""

    name = "online_stream"

    def check_job(self, job) -> None:
        # An exact forecast makes every prediction come true, and a workflow
        # committed on arrival is planned exactly like its offline oracle.
        if job.predicted_cost != job.online_cost:
            raise CheckFailed(
                f"{job.name}: exact forecast predicted {job.predicted_cost}, "
                f"realised {job.online_cost}"
            )
        if job.start == job.arrival and job.online_cost != job.oracle_cost:
            raise CheckFailed(
                f"{job.name}: committed on arrival at {job.online_cost}, "
                f"oracle {job.oracle_cost}"
            )


class OnlineReplan(OnlineSimulation):
    """One congested replica, periodic re-planning: plans rarely repeat."""

    name = "online_replan"
    # One arrival in every 50 time units (the default rate) at a random
    # offset, so every simulation gets the same number of arrivals.  The
    # re-planning work grows faster than the queue, so with Poisson arrivals
    # the busiest simulations set the 90th percentile: over five seeds its
    # IQR was 0.20 of its median.
    settings = {
        "arrivals": "burst",
        "burst_period": 50,
        "burst_size": 1,
        "burst_jitter": 49,
        "slots": 1,
        "policy": "reschedule",
        "reschedule_period": 15,
        "forecast": "moving-average",
    }


WORKLOADS = {cls.name: cls for cls in (OfflineGrid, OnlineStream, OnlineReplan)}


def cold_start(name: str, seed: int) -> None:
    """Set up *name* in a fresh interpreter and finish its first item."""
    workload = WORKLOADS[name](seed)
    item = workload.next_input()
    workload.check(item, workload.run(item))
