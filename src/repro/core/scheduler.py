"""The CaWoSched facade: run named variants and collect results.

:class:`CaWoSched` bundles the greedy phase, the local search and the ASAP
baseline behind a single entry point keyed by the paper's variant names
(``slack``, ``pressWR-LS``, ``ASAP``, ...).  Every run produces a
:class:`ScheduleResult` with the schedule, its carbon cost and the wall-clock
time spent, which is what the experiment harness records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.greedy import greedy_schedule
from repro.core.local_search import DEFAULT_WINDOW, local_search
from repro.core.subdivision import DEFAULT_BLOCK_SIZE
from repro.core.variants import get_variant
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import check_schedule

__all__ = ["ScheduleResult", "CaWoSched"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of running one algorithm variant on one instance.

    Attributes
    ----------
    variant:
        Name of the algorithm variant.
    schedule:
        The produced (feasible) schedule.
    carbon_cost:
        Total carbon cost of the schedule.
    runtime_seconds:
        Wall-clock time of the run.
    makespan:
        Makespan of the schedule.
    """

    variant: str
    schedule: Schedule
    carbon_cost: int
    runtime_seconds: float
    makespan: int


class CaWoSched:
    """Carbon-aware workflow scheduler with a fixed mapping and deadline.

    Parameters
    ----------
    block_size:
        Maximum block size ``k`` of the refined interval subdivision
        (paper default: 3).
    window:
        Local-search window ``µ`` (paper default: 10).
    validate:
        Check every produced schedule for feasibility (adds a small overhead;
        enabled by default).

    Examples
    --------
    >>> scheduler = CaWoSched()
    >>> result = scheduler.run(instance, "pressWR-LS")   # doctest: +SKIP
    >>> result.carbon_cost                                # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        window: int = DEFAULT_WINDOW,
        validate: bool = True,
    ) -> None:
        self.block_size = int(block_size)
        self.window = int(window)
        self.validate = bool(validate)

    # ------------------------------------------------------------------ #
    def config_dict(self) -> Dict[str, object]:
        """Return the scheduler configuration as a plain dictionary.

        Used by :mod:`repro.api` jobs to ship the configuration across
        process boundaries and to fingerprint them.
        """
        return {
            "block_size": self.block_size,
            "window": self.window,
            "validate": self.validate,
        }

    @classmethod
    def from_config(cls, config: Optional[Dict[str, object]] = None) -> "CaWoSched":
        """Rebuild a scheduler from :meth:`config_dict` output."""
        config = dict(config or {})
        return cls(
            block_size=int(config.get("block_size", DEFAULT_BLOCK_SIZE)),
            window=int(config.get("window", DEFAULT_WINDOW)),
            validate=bool(config.get("validate", True)),
        )

    # ------------------------------------------------------------------ #
    def schedule(self, instance: ProblemInstance, variant: str) -> Schedule:
        """Return the schedule produced by *variant* on *instance*."""
        spec = get_variant(variant)
        if spec.is_baseline:
            produced = asap_schedule(instance)
        else:
            produced = greedy_schedule(
                instance,
                base=spec.base,
                weighted=spec.weighted,
                refined=spec.refined,
                block_size=self.block_size,
            )
            if spec.local_search:
                produced = local_search(
                    produced, window=self.window, algorithm_name=spec.name
                )
        if self.validate:
            check_schedule(produced)
        return produced

    def run(self, instance: ProblemInstance, variant: str) -> ScheduleResult:
        """Run *variant* on *instance* and return a timed, costed result."""
        begin = time.perf_counter()
        produced = self.schedule(instance, variant)
        elapsed = time.perf_counter() - begin
        return ScheduleResult(
            variant=variant,
            schedule=produced,
            carbon_cost=carbon_cost(produced),
            runtime_seconds=elapsed,
            makespan=produced.makespan,
        )
